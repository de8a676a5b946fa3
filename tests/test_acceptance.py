"""Acceptance gate: every contractual criterion at its stated tolerance.

Slow statistical criteria share one module-scoped run of the outage
experiments.  Each test prints a one-line verdict so a verbose run reads
as a checklist.
"""

import time

import pytest

from antsel import verify
from antsel.montecarlo import independence_suite, lemma_harness

SEED = 20250809
FULL_TRIALS = 10_000_000


def report(num, name, detail):
    print(f"[criterion {num:02d}] PASS {name}: {detail}")


@pytest.fixture(scope="module")
def outage_fits():
    # 10M trials per rule on a common seed; shared by criteria 6, 7 and 9
    return verify.outage_slope_fits(FULL_TRIALS, SEED)


def test_criterion_01_analytic_expansion_anchor():
    t0 = time.perf_counter()
    ratio_33 = verify.quadrature_anchor_ratio(3, 3)
    ratio_43 = verify.quadrature_anchor_ratio(4, 3)
    elapsed = time.perf_counter() - t0
    assert 0.98 <= ratio_33 <= 1.02
    assert 0.98 <= ratio_43 <= 1.02
    assert elapsed < 1.0
    report(1, "analytic expansion anchor",
           f"(3,3) ratio {ratio_33:.5f}, (4,3) ratio {ratio_43:.5f} in {elapsed:.3f}s")


def test_criterion_02_analytic_slope():
    s_u = verify.quadrature_slope(3, 3, restricted=False)
    s_r = verify.quadrature_slope(3, 3, restricted=True)
    assert abs(s_u - 4.0) <= 0.05
    assert abs(s_u - s_r) <= 0.05
    report(2, "analytic log-log slope", f"unrestricted {s_u:.4f}, restricted {s_r:.4f}")


def test_criterion_03_coefficient_identities():
    # the self-test holds the coefficient positivity and tail-bound checks
    # for 2..12, the series limit, the binomial identity and both
    # exponential-integral checks, each at its contractual tolerance
    t0 = time.perf_counter()
    outcomes = verify.analytic_selftest()
    elapsed = time.perf_counter() - t0
    failed = [f"{o.name}: {o.detail}" for o in outcomes if not o.passed]
    assert not failed, failed
    assert elapsed < 10.0
    report(3, "coefficient positivity and special-function identities",
           f"{len(outcomes)} identities in {elapsed:.2f}s")


def test_criterion_04_marginal_distributions():
    t0 = time.perf_counter()
    details = []
    for n_t, n_r in ((3, 3), (4, 2)):
        pv_h, pv_a = verify.marginal_ks_pvalues(n_t, n_r, 100_000, SEED)
        assert pv_h > verify.KS_SIGNIFICANCE, f"height KS failed for ({n_t},{n_r}): p={pv_h}"
        assert pv_a > verify.KS_SIGNIFICANCE, f"angle KS failed for ({n_t},{n_r}): p={pv_a}"
        details.append(f"({n_t},{n_r}): p_h={pv_h:.3f}, p_a={pv_a:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, "marginal distributions", "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_05_independence_structure():
    t0 = time.perf_counter()
    rep = independence_suite(4, 3, 1_000_000, master_seed=SEED)
    elapsed = time.perf_counter() - t0
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed
    assert elapsed < 60.0
    report(5, "independence structure", f"{len(rep.checks)} checks in {elapsed:.1f}s")


def test_criterion_06_diversity_order_separation(outage_fits):
    mm = outage_fits["maxmin"].slope
    rnd = outage_fits["random"].slope
    ff = outage_fits["first-fixed"].slope
    fo = outage_fits["first-ordered"].slope
    lo, hi = verify.SLOPE_WINDOW_SELECTED
    rlo, rhi = verify.SLOPE_WINDOW_RANDOM
    assert lo <= mm <= hi
    assert rlo <= rnd <= rhi
    assert mm - rnd >= verify.SLOPE_SEPARATION
    assert lo <= ff <= hi
    assert lo <= fo <= hi
    report(6, "diversity-order separation",
           f"maxmin {mm:.2f}, random {rnd:.2f}, first-fixed {ff:.2f}, first-ordered {fo:.2f}")


def test_criterion_07_qr_df_structure(outage_fits):
    worst, first_ok = verify.qr_df_stage_oracle(100, SEED)
    assert worst < verify.STAGE_ORACLE_BOUND
    assert first_ok
    qr = outage_fits["qr-greedy"].slope
    lo, hi = verify.SLOPE_WINDOW_SELECTED
    assert lo <= qr <= hi
    report(7, "greedy/decision-feedback structure",
           f"stage-SNR error {worst:.1e}, first-layer slope {qr:.2f}")


def test_criterion_08_ber_ordering():
    res = verify.ber_ordering_test(200_000, 20.0, SEED)
    assert res["qr_bits"] >= 10 ** 6 and res["ff_bits"] >= 10 ** 6
    assert res["z"] > verify.BER_ORDERING_Z, res
    report(8, "decision-feedback BER ordering at 20 dB",
           f"qr {res['qr_ber']:.2e} < first-fixed {res['ff_ber']:.2e}, z = {res['z']:.2f}")


def test_criterion_09_dmt(outage_fits):
    fits = verify.dmt_estimates(FULL_TRIALS, SEED + 1)
    d1 = fits[1.0].slope
    d0 = fits[0.0].slope
    lo, hi = verify.DMT_WINDOW_UNIT_GAIN
    assert lo <= d1 <= hi
    assert abs(d0 - outage_fits["maxmin"].slope) <= verify.DMT_ZERO_GAIN_GAP
    report(9, "diversity-multiplexing estimates", f"d(0) = {d0:.2f}, d(1) = {d1:.2f}")


def test_criterion_10_lemma_harnesses():
    r3 = lemma_harness("III", (1, 2), FULL_TRIALS, master_seed=SEED)
    assert abs(r3.fits[0].slope - 3.0) <= 0.15, r3
    r4 = lemma_harness("IV", (1, 1), FULL_TRIALS, master_seed=SEED)
    assert all(abs(f.slope - 1.0) <= 0.1 for f in r4.fits), r4
    assert abs(r4.fits[0].slope - r4.fits[1].slope) <= 0.1
    r5 = lemma_harness("V", (2, 1), FULL_TRIALS, master_seed=SEED)
    assert abs(r5.fits[0].slope - r5.fits[1].slope) <= 0.1, r5
    assert r5.passed
    report(10, "exponential-equivalence harnesses",
           f"III {r3.fits[0].slope:.3f}; IV {r4.fits[0].slope:.3f}/{r4.fits[1].slope:.3f}; "
           f"V {r5.fits[0].slope:.3f}/{r5.fits[1].slope:.3f}")


def test_criterion_11_reproducibility():
    ok, detail = verify.reproducibility_check(SEED)
    assert ok, detail
    report(11, "reproducibility", detail)
