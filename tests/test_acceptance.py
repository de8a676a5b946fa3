"""Acceptance gate: every contractual criterion at its stated tolerance.

One module-scoped run of ``verify.run_verification("full", SEED,
workers=2)`` (the table ``antsel verify --scale full`` prints) is the
evidence.  Each test asserts that the rows tagged with its criterion
exist and pass, so every measurement, window, tolerance, trial count and
seed lives in ``antsel.verify`` alone; the worker count does not change
any result (criterion 11).  Time bounds read the summed ``seconds`` of a
criterion's rows.  Each test prints a one-line verdict so a verbose run
reads as a checklist.  The last tests require a program mutation in
``tests/test_mutations.py`` for every gating criterion but 9, and rows
equal to their golden record (``tests/golden/verification_rows.json``)
in every field but ``seconds``.
"""

import json

import pytest

import golden_records as golden
from antsel import verify
from test_mutations import MUTATED_CRITERIA

SEED = 20250809


@pytest.fixture(scope="module")
def table():
    return verify.run_verification("full", SEED, workers=2)


def accept(table, num, name, max_seconds=None):
    rows = [o for o in table if num in o.criteria]
    assert rows, f"no row of the verification table is tagged with criterion {num}"
    for o in rows:
        assert o.passed, f"{o.name}: {o.detail}"
    if max_seconds is not None:
        assert sum(o.seconds for o in rows) < max_seconds
    print(f"[criterion {num:02d}] PASS {name}: " + "; ".join(f"{o.name}: {o.detail}" for o in rows))


def test_criterion_01_analytic_expansion_anchor(table):
    accept(table, 1, "analytic expansion anchor", max_seconds=1.0)


def test_criterion_02_analytic_slope(table):
    accept(table, 2, "analytic log-log slope")


def test_criterion_03_coefficient_identities(table):
    # the self-test holds the exact closed form (n_t-2)!/(m+n_t-2)! of the
    # leading coefficient for 2..12 (which implies that it is positive
    # and that the tail sum is below 1/(m m!)), the series limit, the
    # binomial identity and the exponential integral against quadrature,
    # each at its contractual tolerance
    accept(table, 3, "coefficient positivity and special-function identities", max_seconds=10.0)


def test_criterion_04_marginal_distributions(table):
    accept(table, 4, "marginal distributions", max_seconds=30.0)


def test_criterion_05_independence_structure(table):
    accept(table, 5, "independence structure", max_seconds=60.0)


def test_criterion_06_diversity_order_separation(table):
    accept(table, 6, "diversity-order separation")


def test_criterion_07_qr_df_structure(table):
    # the outage-slope row holds qr-greedy's first-layer slope window
    accept(table, 7, "greedy/decision-feedback structure")


def test_criterion_08_ber_ordering(table):
    accept(table, 8, "decision-feedback BER ordering")


def test_criterion_09_dmt(table):
    accept(table, 9, "diversity-multiplexing estimates")


def test_criterion_10_lemma_harnesses(table):
    accept(table, 10, "exponential-equivalence harnesses")


def test_criterion_11_reproducibility(table):
    accept(table, 11, "reproducibility")


def test_criterion_tags_cover_the_contract(table):
    assert set().union(*(o.criteria for o in table)) == set(range(1, 12))
    assert all(o.criteria for o in table if o.gating)
    assert not any(o.criteria for o in table if not o.gating)
    names = [o.name for o in table]
    assert len(names) == len(set(names))


def test_every_gating_criterion_but_9_has_a_program_mutation(table):
    # criterion 9 reads the outage curve that criteria 6 and 7 mutate
    # (see tests/test_mutations.py)
    gating = set().union(*(o.criteria for o in table if o.gating))
    assert set(MUTATED_CRITERIA) == gating - {9}


def test_rows_equal_their_golden_record(table):
    assert golden.table_rows(table) == json.loads(golden.read("verification_rows.json"))
