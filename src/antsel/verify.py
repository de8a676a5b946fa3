"""Verification checks behind the `antsel verify` command.

Every acceptance criterion splits into a measurement and a verdict.  A
measurement (``quadrature_slope``, ``outage_slope_fits``,
``ber_ordering_test``, ``montecarlo.independence_suite``,
``montecarlo.lemma_harness``, ...) returns plain values: fits,
correlations, p-values, counts.  A verdict (the ``check_*`` functions)
takes those values and returns one :class:`CheckOutcome`; it holds the
criterion's window, tolerance or significance level, and nothing else
does.

:func:`run_verification` measures each row at one of two scales, times it
and calls its verdict.  "full" runs the statistical checks at their
contractual trial counts; "quick" is a smoke-scale pass with the same
verdicts (slope windows are wide enough to hold at both scales).  The
acceptance tests measure at ``_SCALES["full"]`` and assert the same
verdicts, so the two cannot drift apart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import analytic
from . import receivers as rx
from .channel import complex_gaussian, qr_factorize, sample_channel, stream_generator
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
)
from .selection import RULES, _pair_table, _rule_pass, select_qr_greedy

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
#: (III, IV), from each other (IV, V) and above n_a (V).
LEMMA_TOLERANCES = {"III": 0.15, "IV": 0.1, "V": 0.1}

# Shapes and sample sizes that do not change with the scale.
MARGINAL_SHAPES = ((3, 3), (4, 2))
INDEPENDENCE_SHAPE = (4, 3)
MARGINAL_SAMPLES = 100_000
STAGE_ORACLE_DRAWS = 100
PROBE_SAMPLES = 100_000
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
    name: str
    passed: bool
    gating: bool
    detail: str
    seconds: float = 0.0


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


def quadrature_slope(n_t: int, n_r: int, restricted: bool = False) -> float:
    """Unweighted log-log slope of the quadrature curve over [1e-4, 1e-2]."""
    xs = np.geomspace(1e-4, 1e-2, 25)
    ys = np.array([analytic.pr_outage_quadrature(x, n_t, n_r, restricted=restricted) for x in xs])
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def analytic_selftest() -> list[CheckOutcome]:
    """Exact and near-exact identity checks of the analytic module."""
    from scipy import integrate

    out: list[CheckOutcome] = []

    def record(name, passed, detail):
        out.append(CheckOutcome(name, bool(passed), True, detail))

    worst = 0.0
    for n_r in range(2, 7):
        total, _ = integrate.quad(lambda t: analytic.theta_pdf(t, n_r), 0.0, math.pi / 2)
        worst = max(worst, abs(total - 1.0))
    record("angle density normalization", worst < 1e-10, f"max |integral - 1| = {worst:.2e}")

    v = analytic.chi2n_cdf(math.log(2.0), 1)
    record("median of the one-term law", abs(v - 0.5) < 1e-12, f"CDF(ln 2) = {v:.15f}")

    x = 1e-4
    lead = analytic.chi2n_cdf(x, 3) / x ** 3
    record("small-threshold head of the CDF", abs(lead * 6.0 - 1.0) < 1e-3,
           f"CDF(x)/x^3 * 3! = {lead * 6.0:.6f} at x = {x}")

    grid = np.linspace(0.1, 1.5, 7)
    gap = float(np.max(np.abs(analytic.theta0_pdf(grid, 1) - analytic.theta_pdf(grid, 2))))
    record("largest-angle law collapses at order one", gap < 1e-12, f"max density gap = {gap:.2e}")

    v = analytic.theta0_cdf(math.pi / 4, 4)
    record("largest-angle CDF spot value", abs(v - 0.0625) < 1e-12, f"CDF(pi/4; 4) = {v}")

    ok = all(analytic.binomial_identity_check(m, k) for m in range(1, 21) for k in range(0, m))
    record("alternating binomial identity m <= 20", ok, "exact integer arithmetic")

    target = 1.0 / (4.0 * math.factorial(5))
    got = analytic.series_partial(4, 1000)
    record("factorial-ratio series limit", abs(got - target) / target < 1e-9,
           f"partial sum = {got:.12e}, limit = {target:.12e}")

    residual = max(
        abs(k * analytic.exp_integral(k + 1, x) - math.exp(-x) + x * analytic.exp_integral(k, x))
        for k in range(1, 7) for x in (0.1, 1.0, 5.0)
    )
    record("exponential-integral recursion residual", residual < 1e-12, f"max residual = {residual:.2e}")

    worst = 0.0
    for k in range(-4, 9):
        for x in (0.1, 1.0, 5.0):
            ref, _ = integrate.quad(lambda m_var: m_var ** (-k) * math.exp(-x * m_var),
                                    1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=300)
            worst = max(worst, abs(analytic.exp_integral(k, x) - ref) / abs(ref))
    record("exponential integral vs quadrature", worst < 1e-10, f"max relative error = {worst:.2e}")

    all_positive = True
    bound_ok = True
    for n_t in range(2, 13):
        for n_r in range(2, 13):
            m = (n_t - 1) * (n_r - 1)
            all_positive &= analytic.leading_coefficient_exact(n_t, n_r) > 0
            tail = sum(Fraction(math.factorial(k), math.factorial(m + k + 1)) for k in range(0, n_t - 2))
            bound_ok &= tail < Fraction(1, m * math.factorial(m))
    record("leading coefficient positive for 2..12", all_positive, "exact rational check")
    record("tail sum below 1/(m m!) for 2..12", bound_ok, "exact rational check")

    head_ok = True
    for n_t, n_r in ((2, 2), (3, 3), (4, 3)):
        coeff = analytic.outage_coefficient(n_t, n_r)
        m = coeff.m
        a = coeff.a
        head_ok &= abs(a[0] - 1.0) < 1e-12
        head_ok &= all(abs(v) < 1e-12 for v in a[1:m])
        head_ok &= abs(a[m] + 1.0 / math.factorial(m)) < 1e-12
    record("expansion head collapses to 1 - x^m/m!", head_ok, "a_0 = 1, interior zeros, a_m = -1/m!")

    out.extend(check_expansion_anchor(shape, quadrature_anchor_ratio(*shape)) for shape in EXPANSION_ANCHORS)
    return out


# ---------------------------------------------------------------------------
# statistical measurements
# ---------------------------------------------------------------------------

def marginal_ks_pvalues(n_t: int, n_r: int, samples: int, seed: int) -> tuple[float, float]:
    """KS p-values of the simulated pair height and angle against their
    closed-form laws, from `samples` independent draws."""
    from scipy import stats

    rng = stream_generator(seed, 0)
    norms, fwd, _ = _pair_table(complex_gaussian(rng, (samples, n_r, 2)))
    heights = fwd[0]  # column 0 against column 1
    angles = np.arcsin(np.sqrt(np.clip(heights / norms[0], 0.0, 1.0)))
    ks_height = stats.kstest(heights, lambda v: analytic.chi2n_cdf(v, n_r - 1))
    ks_angle = stats.kstest(angles, lambda v: analytic.theta_cdf(v, n_r))
    return float(ks_height.pvalue), float(ks_angle.pvalue)


def outage_slope_fits(trials: int, seed: int, workers: int = 1) -> dict[str, SlopeFit]:
    """Fitted outage slopes for (3, 3, 2) under each rule, from one
    multi-rule pass over common draws."""
    config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=RULES[0], trial_count=trials,
                              master_seed=seed, grid=OUTAGE_GRID)
    return {rule: fit_slope(curve) for rule, curve in estimate_outage_rules(config, RULES, workers).items()}


def qr_df_stage_oracle(draws: int, seed: int) -> tuple[float, bool]:
    """Genie decision-feedback stage SNRs of (3, 3, 2) at rho0 = 10, from the
    detectors' stage matrices, against the squared QR triangular diagonal
    of the selected columns, plus the max-norm first-pick check.

    Returns (worst relative error, first pick always max-norm).
    """
    n_t, n_r, L, rho0 = 3, 3, 2, 10.0
    budget = rx.LinkBudget(rho0=rho0, L=L)
    worst = 0.0
    first_pick_ok = True
    for d in range(draws):
        H = sample_channel(n_r, n_t, seed, d).matrix
        outcome = select_qr_greedy(H, L)
        # selection order: reverse of the decode order over the sorted subset
        selection_cols = [outcome.subset.indices[p] for p in reversed(outcome.decode_order)]
        norms = np.real(np.einsum("rt,rt->t", H.conj(), H))
        first_pick_ok &= norms[selection_cols[0]] == norms.max()
        H_sel = H[:, selection_cols]
        _, r = qr_factorize(H_sel)
        diag_snrs = (rho0 / L) * np.abs(np.diagonal(r)) ** 2
        stage = rx.df_stage_snrs(H_sel, budget, tuple(range(L - 1, -1, -1)))
        rel = np.abs(np.asarray(stage) - diag_snrs[::-1]) / diag_snrs[::-1]
        worst = max(worst, float(rel.max()))
    return worst, first_pick_ok


def ber_ordering_test(frames: int, snr_db: float, seed: int, workers: int = 1) -> dict:
    """Common-seed BER of the greedy rule versus the first-layer rule under
    decision feedback, 50 symbols per frame, from one BER pass in which
    both rules detect the same channels, bits and noise, as
    :func:`ber_ordering_measurement`."""
    rules = ("qr-greedy", "first-fixed")
    config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rules[0], trial_count=frames,
                              master_seed=seed, grid=(float(snr_db),), receiver="df-zf", frame_symbols=50)
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
    """Empirical diversity at multiplexing gains 0 and 1 for (3, 3, 2).

    The SNR grids are chosen so the implied thresholds sweep the
    informative decade of the outage curve at each gain; both gains are
    counted in one outage run.  At gain 0 they span the outage grid, so
    the draws come from ``seed + 1``: an independent sample of the curve
    :func:`outage_slope_fits` measures on ``seed``.
    """
    grids = {0.0: np.linspace(6.0, 20.0, 15), 1.0: np.linspace(12.0, 40.0, 15)}
    return estimate_dmt_gains(3, 3, 2, "maxmin", grids, trials, master_seed=seed + 1, workers=workers)


def lemma_fits(trials: int, seed: int, workers: int = 1) -> dict[str, tuple[SlopeFit, ...]]:
    """The fits of the three exponential-equivalence harnesses of ``LEMMA_CASES``."""
    return {lemma: lemma_harness(lemma, params, trials, seed, workers) for lemma, params in LEMMA_CASES}


def reproducibility_runs(seed: int) -> tuple[tuple, tuple]:
    """One outage config run twice at one worker and once at two, and one
    BER config at one and two workers."""
    config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="maxmin", trial_count=24_000,
                              master_seed=seed, grid=OUTAGE_GRID, chunk_size=7_000)
    ber_config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=3_000,
                                  master_seed=seed, grid=(12.0, 16.0), chunk_size=1_000,
                                  receiver="df-zf", frame_symbols=20)
    outage = tuple(estimate_outage(config, workers=w) for w in (1, 1, 2))
    ber = tuple(estimate_ber(ber_config, workers=w) for w in (1, 2))
    return outage, ber


def greedy_first_layer_distribution_probe(samples: int, seed: int) -> float:
    """KS p-value of the greedy first decoded layer of (3, 3) against the
    max of n_t - 1 independent pair-height laws."""
    from scipy import stats

    n_t, n_r = 3, 3
    rng = stream_generator(seed, 0)
    H = complex_gaussian(rng, (samples, n_r, n_t))
    scalars = _rule_pass(("qr-greedy",), H, 2)[0]
    ks = stats.kstest(scalars, lambda v: analytic.chi2n_cdf(v, n_r - 1) ** (n_t - 1))
    return float(ks.pvalue)


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
    agree = abs(slopes[0] - slopes[1]) <= tol
    if lemma == "IV":  # sum and max share exponent sum(n_k) / 2
        return agree and all(abs(s - 0.5 * sum(params)) <= tol for s in slopes)
    # V: products with [0, 1] factors cannot outpace the bare Gamma(n_a) variable
    return agree and max(slopes) <= params[0] + tol


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


def check_first_layer_probe(pvalue: float) -> CheckOutcome:
    """Informational: the norm-ordering of the greedy first pick perturbs
    the finite-sample law even though the slope consequence holds."""
    return CheckOutcome("greedy first-layer exact-law probe", True, False,
                        f"KS p = {pvalue:.3g} (informational: finite-sample law is perturbed "
                        "by the max-norm first pick; the slope check above is the contract)")


# ---------------------------------------------------------------------------
# assembled table
# ---------------------------------------------------------------------------

def run_verification(scale: str = "quick", seed: int = 0, workers: int = 1) -> list[CheckOutcome]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}")
    if not 0 <= seed < 2 ** 64 - 1:  # the DMT row draws from seed + 1
        raise ValueError(f"seed must lie in [0, 2^64 - 1), got {seed}")
    p = _SCALES[scale]
    out: list[CheckOutcome] = []
    # the rows load scipy lazily; loading it here keeps the import out of
    # the first row's seconds
    from scipy import integrate, special, stats  # noqa: F401

    def row(verdict, measure, *args):
        t0 = time.perf_counter()
        value = measure(*args)
        out.append(replace(verdict(value), seconds=time.perf_counter() - t0))
        return value

    for shape in EXPANSION_ANCHORS:
        row(partial(check_expansion_anchor, shape), quadrature_anchor_ratio, *shape)
    unrestricted = row(check_quadrature_slope, quadrature_slope, 3, 3)
    row(partial(check_slope_gap, unrestricted), quadrature_slope, 3, 3, True)
    row(check_analytic_selftest, analytic_selftest)
    for shape in MARGINAL_SHAPES:
        row(partial(check_marginals, shape), marginal_ks_pvalues, *shape, MARGINAL_SAMPLES, seed)
    row(partial(check_independence, INDEPENDENCE_SHAPE), independence_suite, *INDEPENDENCE_SHAPE,
        p["independence_trials"], seed, workers)
    fits = row(check_outage_slopes, outage_slope_fits, p["outage_trials"], seed, workers)
    row(check_stage_oracle, qr_df_stage_oracle, STAGE_ORACLE_DRAWS, seed)
    row(check_ber_ordering, ber_ordering_test, p["ber_frames"], p["ber_snr_db"], seed, workers)
    row(lambda dmt: check_dmt(dmt, fits["maxmin"].slope), dmt_estimates, p["dmt_trials"], seed, workers)
    row(check_lemmas, lemma_fits, p["lemma_trials"], seed, workers)
    row(check_reproducibility, reproducibility_runs, seed)
    row(check_first_layer_probe, greedy_first_layer_distribution_probe, PROBE_SAMPLES, seed)
    return out
