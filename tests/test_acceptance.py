"""Acceptance gate: every contractual criterion at its stated tolerance.

Each test measures its criterion at ``verify._SCALES["full"]`` on SEED and
asserts the verdict that ``antsel verify`` calls, so every window,
tolerance, trial count and seed lives in ``antsel.verify``.  Slow
statistical criteria share one module-scoped run of the outage
experiments.  Each test prints a one-line verdict so a verbose run reads
as a checklist.
"""

import time

import pytest

from antsel import verify
from antsel.montecarlo import independence_suite

SEED = 20250809
FULL = verify._SCALES["full"]


def accept(num, name, *outcomes):
    for o in outcomes:
        assert o.passed, f"{o.name}: {o.detail}"
    print(f"[criterion {num:02d}] PASS {name}: " + "; ".join(f"{o.name}: {o.detail}" for o in outcomes))


def timed(fn, *args):
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


@pytest.fixture(scope="module")
def outage_fits():
    # shared by criteria 6, 7 and 9
    return verify.outage_slope_fits(FULL["outage_trials"], SEED)


def test_criterion_01_analytic_expansion_anchor():
    shapes = tuple(verify.EXPANSION_ANCHORS)
    ratios, elapsed = timed(lambda: [verify.quadrature_anchor_ratio(*shape) for shape in shapes])
    assert elapsed < 1.0
    accept(1, "analytic expansion anchor", *map(verify.check_expansion_anchor, shapes, ratios))


def test_criterion_02_analytic_slope():
    s_u = verify.quadrature_slope(3, 3, restricted=False)
    s_r = verify.quadrature_slope(3, 3, restricted=True)
    accept(2, "analytic log-log slope", verify.check_quadrature_slope(s_u), verify.check_slope_gap(s_u, s_r))


def test_criterion_03_coefficient_identities():
    # the self-test holds the coefficient positivity and tail-bound checks
    # for 2..12, the series limit, the binomial identity and both
    # exponential-integral checks, each at its contractual tolerance
    outcomes, elapsed = timed(verify.analytic_selftest)
    assert elapsed < 10.0
    accept(3, "coefficient positivity and special-function identities", verify.check_analytic_selftest(outcomes))


def test_criterion_04_marginal_distributions():
    shapes = verify.MARGINAL_SHAPES
    pvalues, elapsed = timed(lambda: [verify.marginal_ks_pvalues(*shape, verify.MARGINAL_SAMPLES, SEED)
                                      for shape in shapes])
    assert elapsed < 30.0
    accept(4, "marginal distributions", *map(verify.check_marginals, shapes, pvalues))


def test_criterion_05_independence_structure():
    report, elapsed = timed(independence_suite, 4, 3, FULL["independence_trials"], SEED)
    assert elapsed < 60.0
    accept(5, "independence structure", verify.check_independence(report))


def test_criterion_06_diversity_order_separation(outage_fits):
    accept(6, "diversity-order separation", verify.check_outage_slopes(outage_fits))


def test_criterion_07_qr_df_structure(outage_fits):
    # the outage-slope verdict holds qr-greedy's first-layer slope window
    oracle = verify.qr_df_stage_oracle(verify.STAGE_ORACLE_DRAWS, SEED)
    accept(7, "greedy/decision-feedback structure",
           verify.check_stage_oracle(oracle), verify.check_outage_slopes(outage_fits))


def test_criterion_08_ber_ordering():
    ber = verify.ber_ordering_test(FULL["ber_frames"], FULL["ber_snr_db"], SEED)
    accept(8, "decision-feedback BER ordering", verify.check_ber_ordering(ber))


def test_criterion_09_dmt(outage_fits):
    dmt = verify.dmt_estimates(FULL["dmt_trials"], SEED)
    accept(9, "diversity-multiplexing estimates", verify.check_dmt(dmt, outage_fits["maxmin"].slope))


def test_criterion_10_lemma_harnesses():
    accept(10, "exponential-equivalence harnesses",
           verify.check_lemmas(verify.lemma_reports(FULL["lemma_trials"], SEED)))


def test_criterion_11_reproducibility():
    accept(11, "reproducibility", verify.check_reproducibility(verify.reproducibility_runs(SEED)))
