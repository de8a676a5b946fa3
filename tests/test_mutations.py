"""Power: each row or self-test check fails on a named wrong program.

Each test runs rows of the verification table, or checks of the
identity self-test (criterion 3's row), once on the program as it stands
and once with one mutation patched in, and requires a pass and then a
fail.  The rows are the table's own, from ``verify.verification_rows``
at the quick scale on the acceptance seed with one worker, so the patch
reaches every chunk and no measurement, scale or verdict is bound here;
the reproducibility row runs its own worker counts.

``MUTATED_CRITERIA`` maps each gating acceptance criterion to the tests
that mutate one of its rows, and the acceptance tests require it to name
every gating criterion but 9.  Criterion 9 has no mutation of its own:
its d(1) is d(0)/2 by construction (``verify.dmt_estimates``), so any
program fault it sees is one of the outage curve, which criteria 6 and 7
already read.  It gets one once the tradeoff is measured on its own.
"""

import math
from fractions import Fraction

import pytest

from antsel import analytic, montecarlo, selection, verify
from antsel import receivers as rx

SEED = 20250809


def mutate_rule_pass(monkeypatch, mutation):
    """Patch the multi-rule selection pass of the engines to apply
    ``mutation(rules, result)`` to what each call returns: the scalars, or
    the selected columns ``cols``."""
    true_pass = montecarlo._rule_pass

    def mutated(rules, H, L, rng=None, cols=None):
        out = true_pass(rules, H, L, rng, cols)
        mutation(rules, out if cols is None else cols)
        return out

    monkeypatch.setattr(montecarlo, "_rule_pass", mutated)


def mutate_tail_length(monkeypatch, extra_terms):
    """``_tail_sum_exact(n_t, m)`` sums n_t - 2 terms, so n_t + 1 sums one
    more and n_t - 1 one fewer (none at n_t = 2, as before)."""
    true_tail = analytic._tail_sum_exact
    monkeypatch.setattr(analytic, "_tail_sum_exact", lambda n_t, m: true_tail(n_t + extra_terms, m))


def rows(*criteria):
    """``(value, outcome)`` of each quick-scale row of the table whose
    criteria are ``criteria``, measured and judged from
    ``verify.verification_rows`` on ``SEED`` with one worker."""
    out = []
    for tags, measure, verdict in verify.verification_rows("quick", SEED, 1):
        if tags == criteria:
            value = measure()
            out.append((value, verdict(value)))
    assert out, f"no row of the table has criteria {criteria}"
    return out


def selftest():
    """Pass or fail of each check of criterion 3's row, by name."""
    [(checks, _)] = rows(3)
    return {check.name: check.passed for check in checks}


@pytest.mark.parametrize("extra_terms", [1, -1])
def test_wrong_tail_length_fails_both_anchors(monkeypatch, extra_terms):
    # criterion 1: the computed leading coefficient moves off the
    # quadrature and the literal anchors
    assert all(row.passed for _, row in rows(1))
    mutate_tail_length(monkeypatch, extra_terms)
    assert not any(row.passed for _, row in rows(1))


def test_diversity_order_one_high_fails_the_quadrature_slope(monkeypatch):
    # criterion 2: the quadrature's x^m prefactor reads m + 1, and the
    # (3,3) slope moves off 4 by about 1
    (_, slope), _ = rows(2)
    assert slope.passed
    true_m = analytic.AnalyticSpec.m
    monkeypatch.setattr(analytic.AnalyticSpec, "m", property(lambda spec: true_m.fget(spec) + 1))
    (_, slope), _ = rows(2)
    assert not slope.passed


def test_restricted_probability_times_x_fails_the_slope_gap(monkeypatch):
    # criterion 2: the restricted slope alone gains 1
    assert all(row.passed for _, row in rows(2))
    true_quadrature = analytic.pr_outage_quadrature

    def mutated(x, n_t, n_r, restricted=False):
        return true_quadrature(x, n_t, n_r, restricted) * (x if restricted else 1.0)

    monkeypatch.setattr(analytic, "pr_outage_quadrature", mutated)
    (_, slope), (_, gap) = rows(2)
    assert slope.passed and not gap.passed


def test_wrong_angle_order_fails_the_order_one_check(monkeypatch):
    # criterion 3
    name = "largest-angle law collapses at order one"
    assert selftest()[name]
    true_pdf = analytic.theta0_pdf
    monkeypatch.setattr(analytic, "theta0_pdf", lambda theta, m: true_pdf(theta, m + 1))
    assert not selftest()[name]


@pytest.mark.parametrize("extra_terms", [1, -1])
def test_wrong_tail_length_fails_only_the_closed_form(monkeypatch, extra_terms):
    # criterion 3: no other check of the self-test sees it
    name = "leading coefficient in closed form for 2..12"
    assert selftest()[name]
    mutate_tail_length(monkeypatch, extra_terms)
    assert [check for check, passed in selftest().items() if not passed] == [name]


def test_flipped_tail_sign_fails_the_closed_form(monkeypatch):
    # criterion 3: 1/m! + m * tail stays positive, so only the closed
    # form sees it
    name = "leading coefficient in closed form for 2..12"
    assert selftest()[name]

    def plus_tail(n_t, n_r):
        m = (n_t - 1) * (n_r - 1)
        return Fraction(1, math.factorial(m)) + m * analytic._tail_sum_exact(n_t, m)

    monkeypatch.setattr(analytic, "leading_coefficient_exact", plus_tail)
    assert not selftest()[name]


def test_scaled_first_exponential_integral_fails_the_quadrature_check(monkeypatch):
    # criterion 3: E_1, and every order the recursion builds from it,
    # off by a relative 1e-8
    name = "exponential integral vs quadrature"
    assert selftest()[name]
    true_exp1 = analytic._exp1
    monkeypatch.setattr(analytic, "_exp1", lambda x: true_exp1(x) * (1.0 + 1e-8))
    assert not selftest()[name]


def test_wrong_recursion_divisor_fails_the_quadrature_check(monkeypatch):
    # criterion 3: the last step of k E_{k+1} = e^-x - x E_k divides by
    # k + 1
    name = "exponential integral vs quadrature"
    assert selftest()[name]
    true_ei = analytic.exp_integral
    monkeypatch.setattr(analytic, "exp_integral",
                        lambda k, x: true_ei(k, x) if k <= 1 else (math.exp(-x) - x * true_ei(k - 1, x)) / k)
    assert not selftest()[name]


def test_angle_law_of_order_n_r_fails_the_marginals(monkeypatch):
    # criterion 4: the pair angle judged against the law of one more
    # receive antenna
    assert all(row.passed for _, row in rows(4))
    true_cdf = analytic.theta_cdf
    monkeypatch.setattr(analytic, "theta_cdf", lambda theta, n_r: true_cdf(theta, n_r + 1))
    assert not any(row.passed for _, row in rows(4))


def test_dependent_chain_heights_fail_the_independence_row(monkeypatch):
    # criterion 5: chain height (1,2) averaged with (0,1) in the pair
    # table the suite reads
    assert all(row.passed for _, row in rows(5))
    true_table = montecarlo._pair_table

    def mutated(H):
        norms, fwd, bwd = true_table(H)
        n_t = H.shape[-1]
        first, second = selection._pair_rank(n_t, 0, 1), selection._pair_rank(n_t, 1, 2)
        fwd[second] = (fwd[first] + fwd[second]) / 2
        return norms, fwd, bwd

    monkeypatch.setattr(montecarlo, "_pair_table", mutated)
    [(_, row)] = rows(5)
    assert not row.passed
    assert "|corr| chain heights (0,1)x(1,2)" in row.detail
    assert "chain heights (0,1)x(1,2) product CDF" in row.detail


def test_random_scalar_as_maxmin_fails_the_outage_slopes(monkeypatch):
    # criteria 6 and 7: maxmin reads random's fit, out of its window and
    # no longer separated from random
    assert all(row.passed for _, row in rows(6, 7))

    def random_as_maxmin(rules, scalars):
        scalars[rules.index("maxmin")] = scalars[rules.index("random")]

    mutate_rule_pass(monkeypatch, random_as_maxmin)
    [(fits, row)] = rows(6, 7)
    assert fits["maxmin"] == fits["random"]
    assert not row.passed


def test_reversed_stage_columns_fail_the_stage_oracle(monkeypatch):
    # criterion 7: the detectors' stage SNRs read the selected columns in
    # the wrong decode order
    assert all(row.passed for _, row in rows(7))
    true_stage = rx._stage_snrs
    monkeypatch.setattr(rx, "_stage_snrs", lambda Heff, receiver, budget: true_stage(Heff[..., ::-1], receiver, budget))
    assert not any(row.passed for _, row in rows(7))


def test_swapped_ber_rules_fail_the_ordering(monkeypatch):
    # criterion 8: qr-greedy detects with first-fixed's columns and the
    # other way round, which negates the z of the common draws
    [(before, row)] = rows(8)
    assert row.passed

    def swap(rules, cols):
        cols[[0, 1]] = cols[[1, 0]]

    mutate_rule_pass(monkeypatch, swap)
    [(after, row)] = rows(8)
    assert after["z"] == -before["z"]
    assert not row.passed


def test_exponents_one_high_fail_the_harnesses(monkeypatch):
    # criterion 10: every harness draws its variables with exponents
    # n_k + 1, against targets from n_k; V's exponent min(n_a, n_b)
    # moves from 1 to 2, so V fails on its own as well
    assert all(row.passed for _, row in rows(10))
    true_chunk = montecarlo._lemma_chunk

    def mutated(lemma, exps, *args):
        return true_chunk(lemma, tuple(n + 1 for n in exps), *args)

    monkeypatch.setattr(montecarlo, "_lemma_chunk", mutated)
    [(fits, row)] = rows(10)
    assert not row.passed
    assert not verify.check_lemmas({"V": fits["V"]}).passed


def test_worker_dependent_chunk_streams_fail_reproducibility(monkeypatch):
    # criterion 11: with more than one worker, chunk i draws from stream
    # i + 1
    assert all(row.passed for _, row in rows(11))
    true_run = montecarlo._run_chunks
    monkeypatch.setattr(montecarlo, "_run_chunks",
                        lambda job, plan, workers: true_run(job, [(i + (workers > 1), n) for i, n in plan], workers))
    [(_, row)] = rows(11)
    assert not row.passed and row.detail == "curves diverged"


#: The tests that mutate a row of each gating acceptance criterion; the
#: identity self-test is criterion 3's row.
MUTATED_CRITERIA = {
    1: [test_wrong_tail_length_fails_both_anchors],
    2: [test_diversity_order_one_high_fails_the_quadrature_slope,
        test_restricted_probability_times_x_fails_the_slope_gap],
    3: [test_wrong_angle_order_fails_the_order_one_check,
        test_wrong_tail_length_fails_only_the_closed_form,
        test_flipped_tail_sign_fails_the_closed_form,
        test_scaled_first_exponential_integral_fails_the_quadrature_check,
        test_wrong_recursion_divisor_fails_the_quadrature_check],
    4: [test_angle_law_of_order_n_r_fails_the_marginals],
    5: [test_dependent_chain_heights_fail_the_independence_row],
    6: [test_random_scalar_as_maxmin_fails_the_outage_slopes],
    7: [test_random_scalar_as_maxmin_fails_the_outage_slopes,
        test_reversed_stage_columns_fail_the_stage_oracle],
    8: [test_swapped_ber_rules_fail_the_ordering],
    10: [test_exponents_one_high_fail_the_harnesses],
    11: [test_worker_dependent_chunk_streams_fail_reproducibility],
}
