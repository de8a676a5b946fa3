"""Verification checks behind the `antsel verify` command.

Each function returns plain values so the test suite can assert on them
directly; :func:`run_verification` wraps everything into a pass/fail
table at two scales.  "full" runs the statistical checks at their
contractual trial counts; "quick" is a smoke-scale pass with the same
bounds (slope windows are wide enough to hold at both scales).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analytic
from . import receivers as rx
from .channel import complex_gaussian, qr_factorize, sample_channel, stream_generator
from .montecarlo import (
    ExperimentConfig,
    SlopeFit,
    estimate_ber,
    estimate_dmt,
    estimate_outage,
    fit_slope,
    independence_suite,
    lemma_harness,
)
from .selection import _greedy_selection_block, _pair_table, select_qr_greedy

#: Threshold grid spanning the informative sub-saturation decade for
#: (3, 3, 2)-sized problems; the slope fit clips it further by hit counts.
OUTAGE_GRID = tuple(np.geomspace(0.02, 0.5, 32))

# Acceptance bounds, read by run_verification and tests/test_acceptance.py.
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
# analytic checks
# ---------------------------------------------------------------------------

def quadrature_anchor_ratio(n_t: int, n_r: int, x: float = 1e-3) -> float:
    """pr_outage_quadrature(x) / (leading * x^m): 1.0 when the quadrature
    matches the small-threshold expansion."""
    coeff = analytic.outage_coefficient(n_t, n_r)
    value = analytic.pr_outage_quadrature(x, n_t, n_r)
    return value / (coeff.leading * x ** coeff.m)


def quadrature_slope(n_t: int, n_r: int, restricted: bool = False,
                     x_lo: float = 1e-4, x_hi: float = 1e-2, points: int = 25) -> float:
    """Unweighted log-log slope of the quadrature curve over [x_lo, x_hi]."""
    xs = np.geomspace(x_lo, x_hi, points)
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

    for n_t, n_r in ((3, 3), (4, 3)):
        ratio = quadrature_anchor_ratio(n_t, n_r)
        record(f"quadrature matches coefficient ({n_t},{n_r})", abs(ratio - 1.0) < 0.02,
               f"ratio = {ratio:.6f}")
    return out


def analytic_anchor_check() -> list[CheckOutcome]:
    """Expansion anchors and slope agreement (quadrature side only)."""
    out = []
    t0 = time.perf_counter()
    for n_t, n_r, coef in ((3, 3, 1.0 / 120.0), (4, 3, 1.0 / 20160.0)):
        x = 1e-3
        m = (n_t - 1) * (n_r - 1)
        value = analytic.pr_outage_quadrature(x, n_t, n_r) / x ** m
        ok = coef * 0.98 <= value <= coef * 1.02
        out.append(CheckOutcome(f"expansion anchor ({n_t},{n_r})", ok, True,
                                f"P(x)/x^{m} = {value:.6e}, coefficient = {coef:.6e}",
                                time.perf_counter() - t0))
    t0 = time.perf_counter()
    s_u = quadrature_slope(3, 3, restricted=False)
    s_r = quadrature_slope(3, 3, restricted=True)
    out.append(CheckOutcome("quadrature slope (3,3)", abs(s_u - 4.0) <= 0.05, True,
                            f"slope = {s_u:.4f}", time.perf_counter() - t0))
    out.append(CheckOutcome("restricted/unrestricted slope gap", abs(s_u - s_r) <= 0.05, True,
                            f"|{s_u:.4f} - {s_r:.4f}| = {abs(s_u - s_r):.2e}", 0.0))
    return out


# ---------------------------------------------------------------------------
# statistical checks
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


def outage_slope_fits(trials: int, seed: int, workers: int = 1,
                      rules: tuple[str, ...] = ("maxmin", "random", "first-fixed", "first-ordered", "qr-greedy"),
                      grid: tuple[float, ...] = OUTAGE_GRID) -> dict[str, SlopeFit]:
    """Fitted outage slopes for (3, 3, 2) under each rule, common seed."""
    fits = {}
    for rule in rules:
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=trials,
                                  master_seed=seed, grid=grid)
        fits[rule] = fit_slope(estimate_outage(config, workers=workers))
    return fits


def sandwich_holds(trials: int, seed: int) -> bool:
    """On common draws the all-pairs-low event implies the selection
    outage event, so the first-fixed curve can never exceed maxmin."""
    curves = {}
    for rule in ("first-fixed", "maxmin"):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=trials,
                                  master_seed=seed, grid=OUTAGE_GRID)
        curves[rule] = estimate_outage(config)
    return all(a <= b for a, b in zip(curves["first-fixed"].hits, curves["maxmin"].hits))


def qr_df_stage_oracle(draws: int, seed: int, n_t: int = 3, n_r: int = 3, L: int = 2,
                       rho0: float = 10.0) -> tuple[float, bool]:
    """Genie decision-feedback stage SNRs against the squared triangular
    diagonal of the selected columns, plus the max-norm first-pick check.

    Returns (worst relative error, first pick always max-norm).
    """
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


def ber_ordering_test(frames: int, snr_db: float, seed: int, workers: int = 1,
                      frame_symbols: int = 50) -> dict:
    """Common-seed BER of the greedy rule versus the first-layer rule under
    decision feedback, with the one-sided two-proportion z statistic."""
    results = {}
    for rule in ("qr-greedy", "first-fixed"):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=frames,
                                  master_seed=seed, grid=(float(snr_db),),
                                  receiver="df-zf", frame_symbols=frame_symbols)
        curve = estimate_ber(config, workers=workers)
        results[rule] = (curve.hits[0], curve.trials[0])
    e1, n1 = results["qr-greedy"]
    e2, n2 = results["first-fixed"]
    pooled = (e1 + e2) / (n1 + n2)
    se = math.sqrt(max(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2), 1e-300))
    z = ((e2 / n2) - (e1 / n1)) / se
    return {
        "qr_errors": e1, "qr_bits": n1, "qr_ber": e1 / n1,
        "ff_errors": e2, "ff_bits": n2, "ff_ber": e2 / n2,
        "z": z,
    }


def dmt_estimates(trials: int, seed: int, workers: int = 1) -> dict[float, SlopeFit]:
    """Empirical diversity at multiplexing gains 0 and 1 for (3, 3, 2).

    The SNR grids are chosen so the implied thresholds sweep the
    informative decade of the outage curve at each gain.
    """
    grids = {0.0: np.linspace(6.0, 20.0, 15), 1.0: np.linspace(12.0, 40.0, 15)}
    out = {}
    for r, rho_db in grids.items():
        out[r] = estimate_dmt(3, 3, 2, "maxmin", r, rho_db, trials,
                              master_seed=seed, workers=workers)
    return out


def greedy_first_layer_distribution_probe(samples: int, seed: int,
                                          n_t: int = 3, n_r: int = 3) -> float:
    """Informational KS p-value of the greedy first decoded layer against
    the max of n_t - 1 independent pair-height laws.

    The norm-ordering induced by the greedy first pick perturbs the
    finite-sample law even though the slope consequence holds, so this
    probe is reported without gating.
    """
    from scipy import stats

    rng = stream_generator(seed, 0)
    H = complex_gaussian(rng, (samples, n_r, n_t))
    _, picked = _greedy_selection_block(H, 2)
    scalars = picked[:, 1]
    ks = stats.kstest(scalars, lambda v: analytic.chi2n_cdf(v, n_r - 1) ** (n_t - 1))
    return float(ks.pvalue)


def reproducibility_check(seed: int) -> tuple[bool, str]:
    """Identical configs must give identical curves for any worker count."""
    config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="maxmin", trial_count=24_000,
                              master_seed=seed, grid=OUTAGE_GRID, chunk_size=7_000)
    first = estimate_outage(config, workers=1)
    again = estimate_outage(config, workers=1)
    forked = estimate_outage(config, workers=2)
    ber_config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=3_000,
                                  master_seed=seed, grid=(12.0, 16.0), chunk_size=1_000,
                                  receiver="df-zf", frame_symbols=20)
    ber_one = estimate_ber(ber_config, workers=1)
    ber_two = estimate_ber(ber_config, workers=2)
    ok = (first == again) and (first == forked) and (ber_one == ber_two)
    return ok, "identical curves across reruns and worker counts" if ok else "curves diverged"


# ---------------------------------------------------------------------------
# assembled table
# ---------------------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_verification(scale: str = "quick", seed: int = 0, workers: int = 1) -> list[CheckOutcome]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}")
    p = _SCALES[scale]
    out: list[CheckOutcome] = []

    outcomes, dt = _timed(analytic_anchor_check)
    for o in outcomes:
        out.append(CheckOutcome(o.name, o.passed, True, o.detail, o.seconds or dt / len(outcomes)))

    selftest, dt = _timed(analytic_selftest)
    ok = all(o.passed for o in selftest)
    failed = [o.name for o in selftest if not o.passed]
    out.append(CheckOutcome("analytic identity self-test", ok, True,
                            "all identities hold" if ok else f"failed: {failed}", dt))

    for n_t, n_r in ((3, 3), (4, 2)):
        (pv_h, pv_a), dt = _timed(marginal_ks_pvalues, n_t, n_r, 100_000, seed)
        out.append(CheckOutcome(f"KS marginals ({n_t},{n_r})", pv_h > 0.01 and pv_a > 0.01, True,
                                f"height p = {pv_h:.3f}, angle p = {pv_a:.3f}", dt))

    report, dt = _timed(independence_suite, 4, 3, p["independence_trials"], seed)
    failed = [c.name for c in report.checks if not c.passed]
    out.append(CheckOutcome("independence structure (4,3)", report.passed, True,
                            "all checks hold" if report.passed else f"failed: {failed}", dt))

    fits, dt = _timed(outage_slope_fits, p["outage_trials"], seed, workers)
    lo, hi = SLOPE_WINDOW_SELECTED
    rlo, rhi = SLOPE_WINDOW_RANDOM
    sep = fits["maxmin"].slope - fits["random"].slope
    slope_ok = (
        lo <= fits["maxmin"].slope <= hi
        and lo <= fits["first-fixed"].slope <= hi
        and lo <= fits["first-ordered"].slope <= hi
        and lo <= fits["qr-greedy"].slope <= hi
        and rlo <= fits["random"].slope <= rhi
        and sep >= SLOPE_SEPARATION
    )
    detail = ", ".join(f"{k}={v.slope:.2f}" for k, v in fits.items())
    out.append(CheckOutcome("outage slopes (3,3,2)", slope_ok, True, detail, dt))

    (worst, first_ok), dt = _timed(qr_df_stage_oracle, 100, seed)
    out.append(CheckOutcome("greedy DF stage SNRs match triangular diagonal",
                            worst < STAGE_ORACLE_BOUND and first_ok, True,
                            f"worst relative error = {worst:.2e}; first pick max-norm: {first_ok}", dt))

    ber, dt = _timed(ber_ordering_test, p["ber_frames"], p["ber_snr_db"], seed, workers)
    out.append(CheckOutcome("DF BER ordering greedy < first-layer", ber["z"] > 1.645, True,
                            f"qr = {ber['qr_ber']:.2e}, ff = {ber['ff_ber']:.2e}, z = {ber['z']:.2f} "
                            f"at {p['ber_snr_db']} dB", dt))

    dmt, dt = _timed(dmt_estimates, p["dmt_trials"], seed, workers)
    d0, d1 = dmt[0.0].slope, dmt[1.0].slope
    dlo, dhi = DMT_WINDOW_UNIT_GAIN
    dmt_ok = dlo <= d1 <= dhi and abs(d0 - fits["maxmin"].slope) <= DMT_ZERO_GAIN_GAP
    out.append(CheckOutcome("diversity-multiplexing estimates", dmt_ok, True,
                            f"d(0) = {d0:.2f}, d(1) = {d1:.2f}", dt))

    lemmas_ok = True
    details = []
    t0 = time.perf_counter()
    for lemma, params in (("III", (1, 2)), ("IV", (1, 1)), ("V", (2, 1))):
        report = lemma_harness(lemma, params, p["lemma_trials"], master_seed=seed)
        lemmas_ok &= report.passed
        details.append(f"{lemma}: {'/'.join(f'{f.slope:.2f}' for f in report.fits)}")
    out.append(CheckOutcome("exponential-equivalence harnesses", lemmas_ok, True,
                            "; ".join(details), time.perf_counter() - t0))

    (repro_ok, repro_detail), dt = _timed(reproducibility_check, seed)
    out.append(CheckOutcome("reproducibility across workers", repro_ok, True, repro_detail, dt))

    pv, dt = _timed(greedy_first_layer_distribution_probe, 100_000, seed)
    out.append(CheckOutcome("greedy first-layer exact-law probe", True, False,
                            f"KS p = {pv:.3g} (informational: finite-sample law is perturbed "
                            "by the max-norm first pick; the slope check above is the contract)", dt))

    return out
