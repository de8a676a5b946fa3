"""Verification checks behind the `antsel verify` command.

Every acceptance criterion splits into a measurement and a verdict.  A
measurement (``analytic.quadrature_slope``, ``outage_slope_fits``,
``ber_ordering_test``, ``montecarlo.independence_suite``,
``montecarlo.lemma_harness``, ...) returns plain values: fits,
correlations, p-values, counts.  A verdict (the ``check_*`` functions)
takes those values and returns one :class:`CheckOutcome`; it holds the
criterion's window, tolerance or significance level, and nothing else
does.

:func:`verification_rows` is the table: each row binds a measurement to
its scale parameters and seed, pairs it with its verdict and names the
acceptance criteria it is evidence for.  It has two scales.  "full" runs
the statistical checks at their contractual trial counts; "quick" is a
smoke-scale pass with the same verdicts (slope windows are wide enough to
hold at both scales).  :func:`run_verification` measures, times and
judges every row.  The acceptance tests run it at the full scale and
assert the rows of each criterion, and the mutation tests and seed sweeps
run single rows of :func:`verification_rows`, so the table is the one
wiring of the contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial

import numpy as np

from . import analytic
from . import receivers as rx
from .channel import complex_gaussian, sample_channel, stream_generator
from .montecarlo import (
    ExperimentConfig,
    SlopeFit,
    estimate_ber,
    estimate_ber_rules,
    estimate_dmt_gains,
    estimate_outage,
    estimate_outage_rules,
    fit_slope,
    independence_suite,
    lemma_harness,
    marginal_law_pvalues,
    pair_angle,
)
from .selection import RULES, _pair_table, select_block

#: Thresholds of the quadrature slope of criterion 2.
QUADRATURE_SLOPE_GRID = tuple(np.geomspace(1e-4, 1e-2, 25))
#: Threshold grid spanning the informative sub-saturation decade for
#: (3, 3, 2)-sized problems; the slope fit clips it further by hit counts.
OUTAGE_GRID = tuple(np.geomspace(0.02, 0.5, 32))

# Acceptance bounds, read only by the verdicts below.
#: Literal leading coefficients P(x)/x^m of the outage quadrature per
#: (n_t, n_r), and the window of the quadrature against them and against
#: the computed coefficient.
EXPANSION_ANCHORS = {(3, 3): 1.0 / 120.0, (4, 3): 1.0 / 20160.0}
ANCHOR_WINDOW = (0.98, 1.02)
#: Largest gap of the (3, 3) quadrature slope from 4, and between the
#: restricted and unrestricted slopes.
QUADRATURE_SLOPE_TOLERANCE = 0.05
#: Outage slope window of every selection rule, and of random selection.
SLOPE_WINDOW_SELECTED = (3.2, 4.8)
SLOPE_WINDOW_RANDOM = (1.7, 2.3)
#: Least gap between the maxmin and the random outage slope.
SLOPE_SEPARATION = 1.5
#: Window of the diversity estimate at multiplexing gain 1.
DMT_WINDOW_UNIT_GAIN = (1.5, 2.5)
#: Largest gap between the diversity estimate at gain 0 and the maxmin outage slope.
DMT_ZERO_GAIN_GAP = 0.3
#: Largest relative error of the greedy DF stage SNRs against the triangular diagonal.
STAGE_ORACLE_BOUND = 1e-9
#: One-sided z the DF BER of qr-greedy must clear below first-fixed (5 % level).
BER_ORDERING_Z = 1.645
#: Fewest bits each rule of the BER-ordering check must count.
BER_MIN_BITS = 10 ** 6
#: Significance level every KS p-value of criteria 4 and 5 must exceed.
KS_SIGNIFICANCE = 0.01
#: Largest |correlation| of two chained heights, of two reference angles,
#: and of column 0's norm against its first angle.
INDEPENDENCE_CORR_BOUND = 0.01
#: Multiple of its standard deviation under independence that a
#: product-CDF gap |F_xy - F_x F_y| may reach.
PRODUCT_CDF_SIGMAS = 3
#: Least |correlation| the negative control (two heights sharing column
#: 0's norm) must show for the suite to count as able to see dependence.
CONTROL_CORR_FLOOR = 0.05
#: Largest gap of each harness's fitted tail exponents from their target
#: and, for IV and V, from each other.
LEMMA_TOLERANCES = {"III": 0.15, "IV": 0.1, "V": 0.1}

# Shapes and sample sizes that do not change with the scale.
#: The (n_t, n_r, L) of the outage, stage-oracle, BER, DMT and
#: reproducibility rows; the quadrature rows read its (n_t, n_r).
SHAPE = (3, 3, 2)
MARGINAL_SHAPES = ((3, 3), (4, 2))
INDEPENDENCE_SHAPE = (4, 3)
MARGINAL_SAMPLES = 100_000
STAGE_ORACLE_DRAWS = 100
LEMMA_CASES = (("III", (1, 2)), ("IV", (1, 1)), ("V", (2, 1)))

_SCALES = {
    "quick": dict(
        outage_trials=500_000,
        independence_trials=200_000,
        lemma_trials=1_000_000,
        ber_frames=20_000,
        ber_snr_db=14.0,
        dmt_trials=500_000,
    ),
    "full": dict(
        outage_trials=10_000_000,
        independence_trials=1_000_000,
        lemma_trials=10_000_000,
        ber_frames=200_000,
        ber_snr_db=20.0,
        dmt_trials=10_000_000,
    ),
}


@dataclass(frozen=True)
class CheckOutcome:
    """One row of the verification table.

    ``passed`` is the verdict; a failed row fails the table only when it
    is ``gating``.  ``detail`` holds the measured values the verdict read.
    :func:`run_verification` sets ``seconds``, the wall time of the row's
    measurement and verdict, and ``criteria``, the numbers of the
    acceptance criteria the row is evidence for (none for an
    informational row).
    """

    name: str
    passed: bool
    gating: bool
    detail: str
    seconds: float = 0.0
    criteria: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# analytic measurements
# ---------------------------------------------------------------------------

def quadrature_anchor_ratio(n_t: int, n_r: int) -> float:
    """pr_outage_quadrature(x) / (leading * x^m) at x = 1e-3: 1.0 when the
    quadrature matches the small-threshold expansion."""
    x = 1e-3
    coeff = analytic.outage_coefficient(n_t, n_r)
    value = analytic.pr_outage_quadrature(x, n_t, n_r)
    return value / (coeff.leading * x ** coeff.m)


def analytic_selftest() -> list[CheckOutcome]:
    """Exact and near-exact identity checks of the analytic module."""
    out: list[CheckOutcome] = []

    def record(name, passed, detail):
        out.append(CheckOutcome(name, bool(passed), True, detail))

    worst = 0.0
    for n_r in range(2, 7):
        total = analytic.adaptive_quadrature(lambda t: analytic.theta_pdf(t, n_r), 0.0, math.pi / 2)
        worst = max(worst, abs(total - 1.0))
    record("angle density normalization", worst < 1e-10, f"max |integral - 1| = {worst:.2e}")

    v = analytic.chi2n_cdf(math.log(2.0), 1)
    record("median of the one-term law", abs(v - 0.5) < 1e-12, f"CDF(ln 2) = {v:.15f}")

    x = 1e-4
    lead = analytic.chi2n_cdf(x, 3) / x ** 3
    record("small-threshold head of the CDF", abs(lead * 6.0 - 1.0) < 1e-3,
           f"CDF(x)/x^3 * 3! = {lead * 6.0:.6f} at x = {x}")

    grid = np.linspace(0.1, 1.5, 7)  # order one is sin(2 theta) in closed form
    gap = float(np.max(np.abs(analytic.theta0_pdf(grid, 1) - np.sin(2 * grid))))
    record("largest-angle law collapses at order one", gap < 1e-12, f"max density gap = {gap:.2e}")

    v = analytic.theta0_cdf(math.pi / 4, 4)
    record("largest-angle CDF spot value", abs(v - 0.0625) < 1e-12, f"CDF(pi/4; 4) = {v}")

    ok = all(analytic.binomial_identity_check(m, k) for m in range(1, 21) for k in range(0, m))
    record("alternating binomial identity m <= 20", ok, "exact integer arithmetic")

    target = 1.0 / (4.0 * math.factorial(5))
    got = analytic.series_partial(4, 1000)
    record("factorial-ratio series limit", abs(got - target) / target < 1e-9,
           f"partial sum = {got:.12e}, limit = {target:.12e}")

    cases = [(k, x) for k in range(-4, 9) for x in (0.1, 1.0, 5.0)]
    ks, xs = (np.array(column)[:, None] for column in zip(*cases))
    refs = analytic.adaptive_quadrature(lambda m_var: m_var ** -ks * np.exp(-xs * m_var), np.ones(len(cases)))
    worst = max(abs(analytic.exp_integral(k, x) - ref) / abs(ref) for (k, x), ref in zip(cases, refs))
    record("exponential integral vs quadrature", worst < 1e-10, f"max relative error = {worst:.2e}")

    # the tail sum of k!/(m+k+1)! over k <= n_t - 3 telescopes, as
    # k!/(m+k+1)! = (k!/(m+k)! - (k+1)!/(m+k+1)!) / m, so the leading
    # coefficient 1/m! - m * tail is (n_t-2)!/(m+n_t-2)!: positive, and
    # missed by a tail one term too long or short or of the wrong sign
    closed_ok = all(analytic.leading_coefficient_exact(n_t, n_r)
                    == Fraction(math.factorial(n_t - 2), math.factorial((n_t - 1) * (n_r - 1) + n_t - 2))
                    for n_t in range(2, 13) for n_r in range(2, 13))
    record("leading coefficient in closed form for 2..12", closed_ok, "exact rational check")

    head_ok = True
    for n_t, n_r in ((2, 2), (3, 3), (4, 3)):
        coeff = analytic.outage_coefficient(n_t, n_r)
        m = coeff.m
        a = coeff.a
        head_ok &= abs(a[0] - 1.0) < 1e-12
        head_ok &= all(abs(v) < 1e-12 for v in a[1:m])
        head_ok &= abs(a[m] + 1.0 / math.factorial(m)) < 1e-12
    record("expansion head collapses to 1 - x^m/m!", head_ok, "a_0 = 1, interior zeros, a_m = -1/m!")

    return out


# ---------------------------------------------------------------------------
# statistical measurements
# ---------------------------------------------------------------------------

def marginal_ks_pvalues(n_r: int, samples: int, seed: int) -> tuple[float, float]:
    """KS p-values of the simulated pair height and angle against their
    closed-form laws, from `samples` independent draws of two columns.

    The columns of an (n_r, n_t) channel are iid CN(0, I_{n_r}), so the
    laws of any one pair, its height and its angle, depend on n_r alone:
    n_t only counts the pairs, and one pair of columns is drawn."""
    rng = stream_generator(seed, 0)
    norms, fwd, _ = _pair_table(complex_gaussian(rng, (samples, n_r, 2)))
    heights = fwd[0]  # column 0 against column 1
    return marginal_law_pvalues(heights, pair_angle(heights, norms[0]), n_r)


def outage_slope_fits(trials: int, seed: int, workers: int = 1) -> dict[str, SlopeFit]:
    """Fitted outage slopes for ``SHAPE`` under each rule, from one
    multi-rule pass over common draws."""
    config = ExperimentConfig(*SHAPE, rule=RULES[0], trial_count=trials, master_seed=seed, grid=OUTAGE_GRID)
    return {rule: fit_slope(curve) for rule, curve in estimate_outage_rules(config, RULES, workers).items()}


def qr_df_stage_oracle(draws: int, seed: int) -> tuple[float, bool]:
    """Genie decision-feedback stage SNRs of ``SHAPE`` at rho0 = 10, from the
    detectors' stage matrices, against the squared QR triangular diagonal
    of the selected columns, plus the max-norm first-pick check.

    One pass over all draws: the channels of ``sample_channel(n_r, n_t, seed, d)``
    for d < ``draws``, stacked, select their columns in one qr-greedy
    ``select_block`` call and read their stage SNRs in one ``_stage_snrs``
    call.  The reference is one stacked LAPACK QR of the selected columns
    in selection order, which shares no arithmetic with the stage matrices.

    Returns (worst relative error, first pick always max-norm); ``draws``
    < 1 raises ``ValueError``.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    (n_t, n_r, L), rho0 = SHAPE, 10.0
    H = np.stack([sample_channel(n_r, n_t, seed, d).matrix for d in range(draws)])
    cols = select_block("qr-greedy", H, L)  # first decoded first: the picks reversed
    H_dec = np.take_along_axis(H, cols[:, None, :], axis=2)
    stage = rx._stage_snrs(H_dec, "df-zf", rx.LinkBudget(rho0=rho0, L=L))
    r = np.linalg.qr(H_dec[:, :, ::-1], mode="r")
    diag_snrs = (rho0 / L) * np.abs(np.diagonal(r, axis1=1, axis2=2)[:, ::-1]) ** 2
    worst = float((np.abs(stage - diag_snrs) / diag_snrs).max())
    norms = np.real(np.einsum("brt,brt->bt", H.conj(), H))
    first_pick_ok = bool((np.take_along_axis(norms, cols[:, -1:], axis=1)[:, 0] == norms.max(axis=1)).all())
    return worst, first_pick_ok


def ber_ordering_test(frames: int, snr_db: float, seed: int, workers: int = 1) -> dict:
    """Common-seed BER of the greedy rule versus the first-layer rule under
    decision feedback, 50 symbols per frame, from one BER pass in which
    both rules detect the same channels, bits and noise, as
    :func:`ber_ordering_measurement`."""
    rules = ("qr-greedy", "first-fixed")
    config = ExperimentConfig(*SHAPE, rule=rules[0], trial_count=frames, master_seed=seed,
                              grid=(float(snr_db),), receiver="df-zf", frame_symbols=50)
    curves = estimate_ber_rules(config, rules, workers)
    return ber_ordering_measurement(snr_db, *((curves[r].hits[0], curves[r].trials[0]) for r in rules))


def ber_ordering_measurement(snr_db: float, qr: tuple[int, int], ff: tuple[int, int]) -> dict:
    """The measurement judged by :func:`check_ber_ordering`, from the
    (bit errors, bits) of qr-greedy and of first-fixed at ``snr_db``:
    both BERs and the one-sided two-proportion z statistic of first-fixed's
    BER above qr-greedy's."""
    (e1, n1), (e2, n2) = qr, ff
    pooled = (e1 + e2) / (n1 + n2)
    se = math.sqrt(max(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2), 1e-300))
    z = ((e2 / n2) - (e1 / n1)) / se
    return {
        "snr_db": float(snr_db),
        "qr_errors": e1, "qr_bits": n1, "qr_ber": e1 / n1,
        "ff_errors": e2, "ff_bits": n2, "ff_ber": e2 / n2,
        "z": z,
    }


def dmt_estimates(trials: int, seed: int, workers: int = 1) -> dict[float, SlopeFit]:
    """Empirical diversity at multiplexing gains 0 and 1 for ``SHAPE``.

    The SNR grids are chosen so the implied thresholds sweep the
    informative decade of the outage curve at each gain; both gains are
    counted in one outage run.  At gain 0 they span the outage grid, so
    the draws come from ``seed + 1``: an independent sample of the curve
    :func:`outage_slope_fits` measures on ``seed``.

    d(1) = d(0)/2 by construction: gain r reads threshold
    L rho^-(1 - r/L), so gain 0 on 6-20 dB and gain 1 on 12-40 dB get the
    same 15 thresholds, and both fits read one outage slope, scaled by
    1 - r/L.  The window of d(1) is a second maxmin outage slope on
    ``seed + 1``, not an independent measurement of the tradeoff.
    """
    grids = {0.0: np.linspace(6.0, 20.0, 15), 1.0: np.linspace(12.0, 40.0, 15)}
    return estimate_dmt_gains(*SHAPE, "maxmin", grids, trials, master_seed=seed + 1, workers=workers)


def lemma_fits(trials: int, seed: int, workers: int = 1) -> dict[str, tuple[SlopeFit, ...]]:
    """The fits of the three exponential-equivalence harnesses of ``LEMMA_CASES``."""
    return {lemma: lemma_harness(lemma, params, trials, seed, workers) for lemma, params in LEMMA_CASES}


def reproducibility_runs(seed: int) -> tuple[tuple, tuple]:
    """One outage config run twice at one worker and once at two, and one
    BER config at one and two workers."""
    config = ExperimentConfig(*SHAPE, rule="maxmin", trial_count=24_000, master_seed=seed,
                              grid=OUTAGE_GRID, chunk_size=7_000)
    ber_config = ExperimentConfig(*SHAPE, rule="qr-greedy", trial_count=3_000, master_seed=seed,
                                  grid=(12.0, 16.0), chunk_size=1_000, receiver="df-zf", frame_symbols=20)
    outage = tuple(estimate_outage(config, workers=w) for w in (1, 1, 2))
    ber = tuple(estimate_ber(ber_config, workers=w) for w in (1, 2))
    return outage, ber


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _within(window: tuple[float, float], value: float) -> bool:
    return window[0] <= value <= window[1]


def check_expansion_anchor(shape: tuple[int, int], ratio: float) -> CheckOutcome:
    """Criterion 1: the quadrature at x = 1e-3 against the computed leading
    coefficient (``ratio``) and against the literal anchor of ``shape``."""
    coeff = analytic.outage_coefficient(*shape)
    head = ratio * coeff.leading  # P(x) / x^m
    anchor = EXPANSION_ANCHORS[shape]
    lo, hi = ANCHOR_WINDOW
    ok = lo <= ratio <= hi and lo * anchor <= head <= hi * anchor
    return CheckOutcome(f"expansion anchor ({shape[0]},{shape[1]})", ok, True,
                        f"P(x)/x^{coeff.m} = {head:.6e}, coefficient = {anchor:.6e}, ratio = {ratio:.6f}")


def check_quadrature_slope(slope: float) -> CheckOutcome:
    """Criterion 2: the (3, 3) quadrature slope against the diversity order 4."""
    return CheckOutcome("quadrature slope (3,3)", abs(slope - 4.0) <= QUADRATURE_SLOPE_TOLERANCE, True,
                        f"slope = {slope:.4f}")


def check_slope_gap(unrestricted: float, restricted: float) -> CheckOutcome:
    """Criterion 2: the restricted and unrestricted quadrature slopes agree."""
    gap = abs(unrestricted - restricted)
    return CheckOutcome("restricted/unrestricted slope gap", gap <= QUADRATURE_SLOPE_TOLERANCE, True,
                        f"|{unrestricted:.4f} - {restricted:.4f}| = {gap:.2e}")


def check_analytic_selftest(outcomes: list[CheckOutcome]) -> CheckOutcome:
    """Criterion 3: every identity of :func:`analytic_selftest` holds."""
    failed = [f"{o.name}: {o.detail}" for o in outcomes if not o.passed]
    return CheckOutcome("analytic identity self-test", not failed, True,
                        f"failed: {failed}" if failed else f"{len(outcomes)} identities hold")


def check_marginals(shape: tuple[int, int], pvalues: tuple[float, float]) -> CheckOutcome:
    """Criterion 4: both KS p-values exceed ``KS_SIGNIFICANCE``."""
    pv_h, pv_a = pvalues
    return CheckOutcome(f"KS marginals ({shape[0]},{shape[1]})",
                        pv_h > KS_SIGNIFICANCE and pv_a > KS_SIGNIFICANCE, True,
                        f"height p = {pv_h:.3f}, angle p = {pv_a:.3f}")


def check_independence(shape: tuple[int, int], stats: dict) -> CheckOutcome:
    """Criterion 5, on the statistics of ``independence_suite``: every
    correlation within ``INDEPENDENCE_CORR_BOUND``, every product-CDF gap
    within ``PRODUCT_CDF_SIGMAS`` of its standard deviation, both KS
    p-values above ``KS_SIGNIFICANCE`` and the negative control above
    ``CONTROL_CORR_FLOOR``."""
    pv_h, pv_a = stats["ks_pvalues"]
    holds = {f"|corr| {name}": abs(c) <= INDEPENDENCE_CORR_BOUND for name, c in stats["correlations"].items()}
    holds.update((name, gap <= PRODUCT_CDF_SIGMAS * sigma) for name, (gap, sigma) in stats["cdf_gaps"].items())
    holds["KS height marginal p-value"] = pv_h > KS_SIGNIFICANCE
    holds["KS angle marginal p-value"] = pv_a > KS_SIGNIFICANCE
    holds["negative control: shared-norm pair detected"] = abs(stats["control_correlation"]) > CONTROL_CORR_FLOOR
    failed = [name for name, ok in holds.items() if not ok]
    return CheckOutcome(f"independence structure ({shape[0]},{shape[1]})", not failed, True,
                        f"failed: {failed}" if failed else f"{len(holds)} checks hold")


def check_outage_slopes(fits: dict[str, SlopeFit]) -> CheckOutcome:
    """Criteria 6 and 7: every selection rule in the selected window,
    random in its own, and maxmin at least ``SLOPE_SEPARATION`` above random."""
    slopes = {rule: fits[rule].slope for rule in RULES}
    sep = slopes["maxmin"] - slopes["random"]
    ok = (all(_within(SLOPE_WINDOW_SELECTED, s) for rule, s in slopes.items() if rule != "random")
          and _within(SLOPE_WINDOW_RANDOM, slopes["random"])
          and sep >= SLOPE_SEPARATION)
    detail = ", ".join(f"{rule}={s:.2f}" for rule, s in slopes.items())
    return CheckOutcome("outage slopes (3,3,2)", ok, True, f"{detail}; separation {sep:.2f}")


def check_stage_oracle(oracle: tuple[float, bool]) -> CheckOutcome:
    """Criterion 7: the detectors' greedy DF stage SNRs on the QR triangular diagonal, first pick max-norm."""
    worst, first_ok = oracle
    return CheckOutcome("greedy DF stage SNRs match triangular diagonal",
                        worst < STAGE_ORACLE_BOUND and first_ok, True,
                        f"worst relative error = {worst:.2e}; first pick max-norm: {first_ok}")


def check_ber_ordering(ber: dict) -> CheckOutcome:
    """Criterion 8: both rules count ``BER_MIN_BITS`` bits and qr-greedy's
    BER clears first-fixed's by ``BER_ORDERING_Z``."""
    ok = min(ber["qr_bits"], ber["ff_bits"]) >= BER_MIN_BITS and ber["z"] > BER_ORDERING_Z
    return CheckOutcome("DF BER ordering greedy < first-layer", ok, True,
                        f"qr = {ber['qr_ber']:.2e} ({ber['qr_errors']}/{ber['qr_bits']}), "
                        f"ff = {ber['ff_ber']:.2e} ({ber['ff_errors']}/{ber['ff_bits']}), "
                        f"z = {ber['z']:.2f} at {ber['snr_db']} dB")


def check_dmt(dmt: dict[float, SlopeFit], maxmin_slope: float) -> CheckOutcome:
    """Criterion 9: d(1) in its window and d(0) near the maxmin outage slope."""
    d0, d1 = dmt[0.0].slope, dmt[1.0].slope
    ok = _within(DMT_WINDOW_UNIT_GAIN, d1) and abs(d0 - maxmin_slope) <= DMT_ZERO_GAIN_GAP
    return CheckOutcome("diversity-multiplexing estimates", ok, True,
                        f"d(0) = {d0:.2f}, d(1) = {d1:.2f}, maxmin slope = {maxmin_slope:.2f}")


def _lemma_holds(lemma: str, slopes: list[float]) -> bool:
    """One harness's fitted exponents against the targets its
    ``LEMMA_CASES`` parameters give, within ``LEMMA_TOLERANCES[lemma]``."""
    params = dict(LEMMA_CASES)[lemma]
    tol = LEMMA_TOLERANCES[lemma]
    if lemma == "III":  # the sum's exponent is sum(n_k)
        return abs(slopes[0] - sum(params)) <= tol
    # IV: sum and max share exponent sum(n_k) / 2; V: a Gamma(n_a) variable
    # times a [0, 1] factor of CDF exponent n_b != n_a has exponent min(n_a, n_b)
    target = 0.5 * sum(params) if lemma == "IV" else min(params)
    return abs(slopes[0] - slopes[1]) <= tol and all(abs(s - target) <= tol for s in slopes)


def check_lemmas(fits: dict[str, tuple[SlopeFit, ...]]) -> CheckOutcome:
    """Criterion 10: the fits of every harness in ``fits`` hold (see :func:`_lemma_holds`)."""
    ok = all(_lemma_holds(lemma, [f.slope for f in fs]) for lemma, fs in fits.items())
    detail = "; ".join(f"{lemma}: {'/'.join(f'{f.slope:.3f}' for f in fs)}" for lemma, fs in fits.items())
    return CheckOutcome("exponential-equivalence harnesses", ok, True, detail)


def check_reproducibility(runs: tuple[tuple, tuple]) -> CheckOutcome:
    """Criterion 11: every rerun gives the same curve."""
    ok = all(curve == group[0] for group in runs for curve in group)
    return CheckOutcome("reproducibility across workers", ok, True,
                        "identical curves across reruns and worker counts" if ok else "curves diverged")


# ---------------------------------------------------------------------------
# assembled table
# ---------------------------------------------------------------------------

def verification_rows(scale: str = "quick", seed: int = 0, workers: int = 1) -> list[tuple]:
    """The rows of the verification table in order, as ``(criteria,
    measure, verdict)`` triples: ``measure()`` takes no argument, and
    ``verdict(measure())`` is the row's :class:`CheckOutcome`, evidence
    for the acceptance ``criteria``.

    ``scale`` picks the trial counts of ``_SCALES`` ("quick" or "full"),
    ``seed`` keys every random row, and ``workers`` is the process count
    of the chunked measurements, which leaves every result unchanged
    (criterion 11).  A bad argument raises ``ValueError`` here, before any
    row runs.  Two rows read a value of another row: the slope gap reads
    the unrestricted quadrature slope and criterion 9 the maxmin outage
    fit.  Each such value is measured once per call, when it is first
    read, so a row run alone measures what it reads and, in the table,
    reuses the earlier row's value.
    """
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}")
    if not 0 <= seed < 2 ** 64 - 1:  # the DMT row draws from seed + 1
        raise ValueError(f"seed must lie in [0, 2^64 - 1), got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    p = _SCALES[scale]
    quadrature = partial(analytic.quadrature_slope, QUADRATURE_SLOPE_GRID, *SHAPE[:2])  # (probabilities, slope)
    unrestricted = cache(quadrature)
    fits = cache(partial(outage_slope_fits, p["outage_trials"], seed, workers))
    return [
        *(((1,), partial(quadrature_anchor_ratio, *shape), partial(check_expansion_anchor, shape))
          for shape in EXPANSION_ANCHORS),
        ((2,), unrestricted, lambda q: check_quadrature_slope(q[1])),
        ((2,), lambda: (unrestricted()[1], quadrature(restricted=True)[1]), lambda gap: check_slope_gap(*gap)),
        ((3,), analytic_selftest, check_analytic_selftest),
        *(((4,), partial(marginal_ks_pvalues, shape[1], MARGINAL_SAMPLES, seed), partial(check_marginals, shape))
          for shape in MARGINAL_SHAPES),
        ((5,), partial(independence_suite, *INDEPENDENCE_SHAPE, p["independence_trials"], seed, workers),
         partial(check_independence, INDEPENDENCE_SHAPE)),
        # the slope windows hold qr-greedy's first-layer exponent, so this
        # row is evidence for criterion 7 as well
        ((6, 7), fits, check_outage_slopes),
        ((7,), partial(qr_df_stage_oracle, STAGE_ORACLE_DRAWS, seed), check_stage_oracle),
        ((8,), partial(ber_ordering_test, p["ber_frames"], p["ber_snr_db"], seed, workers), check_ber_ordering),
        ((9,), lambda: (dmt_estimates(p["dmt_trials"], seed, workers), fits()["maxmin"].slope),
         lambda dmt: check_dmt(*dmt)),
        ((10,), partial(lemma_fits, p["lemma_trials"], seed, workers), check_lemmas),
        ((11,), partial(reproducibility_runs, seed), check_reproducibility),
    ]


def run_verification(scale: str = "quick", seed: int = 0, workers: int = 1) -> list[CheckOutcome]:
    """Measure, time and judge every row of :func:`verification_rows`,
    which checks the arguments.

    Rows come back in the table's order, each with its ``seconds`` (the
    wall time of its measurement and verdict) and the acceptance
    ``criteria`` it is evidence for.
    """
    rows = verification_rows(scale, seed, workers)
    out: list[CheckOutcome] = []
    for criteria, measure, verdict in rows:
        t0 = time.perf_counter()
        outcome = verdict(measure())
        out.append(replace(outcome, seconds=time.perf_counter() - t0, criteria=criteria))
    return out
