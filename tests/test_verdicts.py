"""Each acceptance verdict rejects a value just outside its bound and
accepts one just inside, on hand-built measurements."""

import pytest

from antsel import verify
from antsel.montecarlo import SlopeFit

EPS = 1e-9


def fit(slope):
    return SlopeFit(slope, 0.0, 0.01, (0.02, 0.5), 10)


def outage_fits(**slopes):
    base = {"maxmin": 4.0, "random": 2.0, "first-fixed": 4.0, "first-ordered": 4.0, "qr-greedy": 4.0}
    base.update({rule.replace("_", "-"): s for rule, s in slopes.items()})
    return {rule: fit(s) for rule, s in base.items()}


def ber(z=3.0, qr_bits=verify.BER_MIN_BITS, ff_bits=verify.BER_MIN_BITS):
    return {"snr_db": 20.0, "qr_errors": 10, "qr_bits": qr_bits, "qr_ber": 10 / qr_bits,
            "ff_errors": 40, "ff_bits": ff_bits, "ff_ber": 40 / ff_bits, "z": z}


def test_hand_built_measurements_pass():
    assert verify.check_outage_slopes(outage_fits()).passed
    assert verify.check_dmt({0.0: fit(4.0), 1.0: fit(2.0)}, 4.0).passed
    assert verify.check_ber_ordering(ber()).passed
    assert verify.check_stage_oracle((0.0, True)).passed


# maxmin's lower edge is the random lower edge plus the separation, so a
# maxmin slope below it fails the separation as well; the others are free
SELECTED_EDGES = [(rule, edge, step) for rule in ("maxmin", "first_fixed", "first_ordered", "qr_greedy")
                  for edge, step in ((0, -1), (1, 1)) if (rule, edge) != ("maxmin", 0)]


@pytest.mark.parametrize("rule, edge, step", SELECTED_EDGES)
def test_selected_slope_window(rule, edge, step):
    bound = verify.SLOPE_WINDOW_SELECTED[edge]
    # random sits low enough that the separation holds at either edge
    assert not verify.check_outage_slopes(outage_fits(random=1.7, **{rule: bound + step * EPS})).passed
    assert verify.check_outage_slopes(outage_fits(random=1.7, **{rule: bound - step * EPS})).passed


@pytest.mark.parametrize("edge, step", [(0, -1), (1, 1)])
def test_random_slope_window(edge, step):
    bound = verify.SLOPE_WINDOW_RANDOM[edge]
    assert not verify.check_outage_slopes(outage_fits(random=bound + step * EPS)).passed
    assert verify.check_outage_slopes(outage_fits(random=bound - step * EPS)).passed


def test_slope_separation():
    maxmin = 2.0 + verify.SLOPE_SEPARATION
    assert not verify.check_outage_slopes(outage_fits(maxmin=maxmin - EPS)).passed
    assert verify.check_outage_slopes(outage_fits(maxmin=maxmin + EPS)).passed


@pytest.mark.parametrize("edge, step", [(0, -1), (1, 1)])
def test_dmt_unit_gain_window(edge, step):
    bound = verify.DMT_WINDOW_UNIT_GAIN[edge]
    assert not verify.check_dmt({0.0: fit(4.0), 1.0: fit(bound + step * EPS)}, 4.0).passed
    assert verify.check_dmt({0.0: fit(4.0), 1.0: fit(bound - step * EPS)}, 4.0).passed


@pytest.mark.parametrize("step", [-1, 1])
def test_dmt_zero_gain_gap(step):
    gap = verify.DMT_ZERO_GAIN_GAP
    assert not verify.check_dmt({0.0: fit(4.0 + step * (gap + EPS)), 1.0: fit(2.0)}, 4.0).passed
    assert verify.check_dmt({0.0: fit(4.0 + step * (gap - EPS)), 1.0: fit(2.0)}, 4.0).passed


def test_ber_ordering_z():
    assert not verify.check_ber_ordering(ber(z=verify.BER_ORDERING_Z)).passed
    assert verify.check_ber_ordering(ber(z=verify.BER_ORDERING_Z + EPS)).passed


@pytest.mark.parametrize("rule", ["qr_bits", "ff_bits"])
def test_ber_bits_floor(rule):
    assert not verify.check_ber_ordering(ber(**{rule: verify.BER_MIN_BITS - 1})).passed
    assert verify.check_ber_ordering(ber(**{rule: verify.BER_MIN_BITS})).passed


def test_stage_oracle_bound():
    bound = verify.STAGE_ORACLE_BOUND
    assert not verify.check_stage_oracle((bound, True)).passed
    assert verify.check_stage_oracle((bound * (1 - EPS), True)).passed
    assert not verify.check_stage_oracle((0.0, False)).passed


@pytest.mark.parametrize("edge, step", [(0, -1), (1, 1)])
def test_expansion_anchor_window(edge, step):
    bound = verify.ANCHOR_WINDOW[edge]
    assert not verify.check_expansion_anchor((3, 3), bound + step * EPS).passed
    assert verify.check_expansion_anchor((3, 3), bound - step * EPS).passed


@pytest.mark.parametrize("step", [-1, 1])
def test_quadrature_slope_tolerances(step):
    tol = verify.QUADRATURE_SLOPE_TOLERANCE
    assert not verify.check_quadrature_slope(4.0 + step * (tol + EPS)).passed
    assert verify.check_quadrature_slope(4.0 + step * (tol - EPS)).passed
    assert not verify.check_slope_gap(4.0, 4.0 + step * (tol + EPS)).passed
    assert verify.check_slope_gap(4.0, 4.0 + step * (tol - EPS)).passed


@pytest.mark.parametrize("which", [0, 1])
def test_marginal_significance(which):
    level = verify.KS_SIGNIFICANCE
    at_level = [0.5, 0.5]
    at_level[which] = level
    assert not verify.check_marginals((3, 3), tuple(at_level)).passed
    at_level[which] = level + EPS
    assert verify.check_marginals((3, 3), tuple(at_level)).passed


def test_expansion_anchor_literal(monkeypatch):
    # a computed coefficient that drifts from the literal anchor fails at ratio 1
    monkeypatch.setitem(verify.EXPANSION_ANCHORS, (3, 3), 1.03 / 120.0)
    assert not verify.check_expansion_anchor((3, 3), 1.0).passed


def independence(**changes):
    """Suite statistics that pass, with ``changes`` applied: ``corr``,
    ``gap`` (in standard deviations), ``pvalues`` or ``control``."""
    sigma = 1e-4
    return {
        "correlations": {"chain heights (0,1)x(1,2)": changes.get("corr", 0.0), "norm vs angle": 0.0},
        "cdf_gaps": {"chain heights (0,1)x(1,2) product CDF at (0.5, 0.5)": (changes.get("gap", 0.0) * sigma, sigma)},
        "ks_pvalues": changes.get("pvalues", (0.5, 0.5)),
        "control_correlation": changes.get("control", 0.5),
    }


def test_independence_hand_built_passes():
    outcome = verify.check_independence((4, 3), independence())
    assert outcome.passed and outcome.detail == "6 checks hold"


@pytest.mark.parametrize("sign", [-1, 1])
def test_independence_correlation_bound(sign):
    bound = verify.INDEPENDENCE_CORR_BOUND
    assert not verify.check_independence((4, 3), independence(corr=sign * bound * (1 + EPS))).passed
    assert verify.check_independence((4, 3), independence(corr=sign * bound * (1 - EPS))).passed


def test_independence_product_cdf_sigmas():
    sigmas = verify.PRODUCT_CDF_SIGMAS
    assert not verify.check_independence((4, 3), independence(gap=sigmas * (1 + EPS))).passed
    assert verify.check_independence((4, 3), independence(gap=sigmas * (1 - EPS))).passed


@pytest.mark.parametrize("which", [0, 1])
def test_independence_ks_significance(which):
    pvalues = [0.5, 0.5]
    pvalues[which] = verify.KS_SIGNIFICANCE
    outcome = verify.check_independence((4, 3), independence(pvalues=tuple(pvalues)))
    assert not outcome.passed and ("height" if which == 0 else "angle") in outcome.detail
    pvalues[which] = verify.KS_SIGNIFICANCE + EPS
    assert verify.check_independence((4, 3), independence(pvalues=tuple(pvalues))).passed


@pytest.mark.parametrize("sign", [-1, 1])
def test_independence_control_floor(sign):
    floor = verify.CONTROL_CORR_FLOOR
    assert not verify.check_independence((4, 3), independence(control=sign * floor)).passed
    assert verify.check_independence((4, 3), independence(control=sign * floor * (1 + EPS))).passed


def lemmas(lemma, *slopes):
    return verify.check_lemmas({lemma: tuple(fit(s) for s in slopes)})


@pytest.mark.parametrize("step", [-1, 1])
def test_lemma_three_on_target(step):
    tol = verify.LEMMA_TOLERANCES["III"]
    assert not lemmas("III", 3.0 + step * (tol + EPS)).passed
    assert lemmas("III", 3.0 + step * (tol - EPS)).passed


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("step", [-1, 1])
def test_lemma_four_on_target(which, step):
    # the other fit sits half a tolerance off the target 1 on the same side,
    # so the sum-vs-max gap stays inside the tolerance
    tol = verify.LEMMA_TOLERANCES["IV"]
    for offset, holds in ((tol + EPS, False), (tol - EPS, True)):
        slopes = [1.0 + step * tol / 2] * 2
        slopes[which] = 1.0 + step * offset
        assert lemmas("IV", *slopes).passed is holds


def test_lemma_four_gap():
    # both fits within the tolerance of the target 1 but apart by more than it
    tol = verify.LEMMA_TOLERANCES["IV"]
    for half_gap, holds in ((tol / 2 + EPS, False), (tol / 2 - EPS, True)):
        assert lemmas("IV", 1.0 - half_gap, 1.0 + half_gap).passed is holds


@pytest.mark.parametrize("which", [0, 1])
def test_lemma_five_gap(which):
    tol = verify.LEMMA_TOLERANCES["V"]
    slopes = [1.0, 1.0]
    slopes[which] = 1.0 + tol + EPS
    assert not lemmas("V", *slopes).passed
    slopes[which] = 1.0 + tol - EPS
    assert lemmas("V", *slopes).passed


@pytest.mark.parametrize("which", [0, 1])
def test_lemma_five_ceiling(which):
    # n_a = 2: either fit may reach n_a + tol, but no higher; the other fit
    # sits half a tolerance below, inside the gap
    tol = verify.LEMMA_TOLERANCES["V"]
    ceiling = 2 + tol
    for slope, holds in ((ceiling + EPS, False), (ceiling - EPS, True)):
        slopes = [ceiling - tol / 2] * 2
        slopes[which] = slope
        assert lemmas("V", *slopes).passed is holds
