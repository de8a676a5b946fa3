"""Power: each row or self-test check fails on a named wrong program.

Each test runs a row's measurement and verdict, or the identity
self-test, once on the program as it stands and once with one mutation
patched in, and requires a pass and then a fail.  The rows run at the
quick scale on the acceptance seed with one worker, so the patch reaches
every chunk.
"""

import pytest

from antsel import analytic, montecarlo, verify

SEED = 20250809
QUICK = verify._SCALES["quick"]


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


def outage_row():
    """The fits of the (3,3,2) outage-slope row and its verdict."""
    fits = verify.outage_slope_fits(QUICK["outage_trials"], SEED)
    return fits, verify.check_outage_slopes(fits)


def ber_row():
    """The measurement of the BER-ordering row and its verdict."""
    ber = verify.ber_ordering_test(QUICK["ber_frames"], QUICK["ber_snr_db"], SEED)
    return ber, verify.check_ber_ordering(ber)


def selftest():
    return {o.name: o.passed for o in verify.analytic_selftest()}


def test_random_scalar_as_maxmin_fails_the_outage_slopes(monkeypatch):
    # criteria 6 and 7: maxmin reads random's fit, out of its window and
    # no longer separated from random
    assert outage_row()[1].passed

    def random_as_maxmin(rules, scalars):
        scalars[rules.index("maxmin")] = scalars[rules.index("random")]

    mutate_rule_pass(monkeypatch, random_as_maxmin)
    fits, row = outage_row()
    assert fits["maxmin"] == fits["random"]
    assert not row.passed


def test_swapped_ber_rules_fail_the_ordering(monkeypatch):
    # criterion 8: qr-greedy detects with first-fixed's columns and the
    # other way round, which negates the z of the common draws
    before, row = ber_row()
    assert row.passed

    def swap(rules, cols):
        cols[[0, 1]] = cols[[1, 0]]

    mutate_rule_pass(monkeypatch, swap)
    after, row = ber_row()
    assert after["z"] == -before["z"]
    assert not row.passed


def test_wrong_angle_order_fails_the_order_one_check(monkeypatch):
    name = "largest-angle law collapses at order one"
    assert selftest()[name]
    true_pdf = analytic.theta0_pdf
    monkeypatch.setattr(analytic, "theta0_pdf", lambda theta, m: true_pdf(theta, m + 1))
    assert not selftest()[name]


@pytest.mark.parametrize("extra_terms", [1, -1])
def test_wrong_tail_length_fails_only_the_closed_form(monkeypatch, extra_terms):
    # _tail_sum_exact(n_t, m) sums n_t - 2 terms, so n_t + 1 sums one more
    # and n_t - 1 one fewer (none at n_t = 2, as before)
    assert selftest()["tail sum in closed form for 2..12"]
    true_tail = analytic._tail_sum_exact
    monkeypatch.setattr(analytic, "_tail_sum_exact", lambda n_t, m: true_tail(n_t + extra_terms, m))
    verdicts = selftest()
    assert not verdicts["tail sum in closed form for 2..12"]
    assert verdicts["leading coefficient positive for 2..12"]
