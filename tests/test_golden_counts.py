"""Golden hit and bit-error counts of the multi-rule passes.

Kernel rewrites must leave every count on a fixed seed unchanged, so a
rewrite that moves one fails here and its before and after values go in
CHANGES.md.  The counts were taken from the code before the selection
rules were folded into one pass (each rule then had its own column
kernel and its own scalar reduction).  The six tests take well under a
second on one core.
"""

import numpy as np
import pytest

from antsel.montecarlo import ExperimentConfig, estimate_ber_rules, estimate_outage_rules
from antsel.selection import RULES

SEED = 20250809
GENERAL_L_RULES = ("maxmin", "random", "qr-greedy")

OUTAGE_CASES = [
    pytest.param((3, 3, 2), RULES, 200_000, tuple(np.geomspace(0.02, 2.0, 12)), {
        "maxmin": (0, 0, 2, 5, 7, 43, 218, 1043, 4381, 16274, 49084, 109895),
        "first-fixed": (0, 0, 0, 1, 2, 11, 59, 310, 1356, 5851, 20439, 57215),
        "first-ordered": (0, 0, 0, 0, 0, 1, 5, 34, 190, 1007, 5558, 25560),
        "qr-greedy": (0, 0, 2, 5, 15, 61, 306, 1348, 5431, 18803, 53023, 113158),
        "random": (63, 154, 359, 817, 1795, 3962, 8703, 18408, 36462, 67629, 111274, 157893),
    }, id="3x3x2"),
    pytest.param((8, 8, 4), GENERAL_L_RULES, 10_000, tuple(np.geomspace(0.5, 8.0, 10)), {
        "maxmin": (0, 0, 0, 0, 0, 0, 23, 819, 5948, 9754),
        "random": (6, 27, 93, 320, 1005, 2602, 5476, 8422, 9795, 9997),
        "qr-greedy": (0, 0, 0, 0, 0, 1, 95, 1449, 6658, 9792),
    }, id="8x8x4"),
]

#: (dims, rules, receiver, ordering, bit errors at 8, 14 and 20 dB) of 1000 frames
BER_CASES = [
    pytest.param((3, 3, 2), RULES, "df-zf", None, {
        "maxmin": (1798, 34, 0), "first-fixed": (2213, 80, 1), "first-ordered": (2054, 67, 1),
        "qr-greedy": (2194, 48, 0), "random": (6019, 623, 22),
    }, id="3x3x2-df-zf"),
    pytest.param((3, 3, 2), RULES, "df-mmse", None, {
        "maxmin": (1651, 34, 0), "first-fixed": (2086, 82, 1), "first-ordered": (2010, 67, 1),
        "qr-greedy": (2009, 47, 0), "random": (5166, 517, 18),
    }, id="3x3x2-df-mmse"),
    pytest.param((4, 4, 3), GENERAL_L_RULES, "df-zf", "vblast", {
        "maxmin": (4463, 49, 0), "qr-greedy": (4151, 39, 0), "random": (9852, 548, 13),
    }, id="4x4x3-df-zf-vblast"),
    pytest.param((4, 4, 3), GENERAL_L_RULES, "df-mmse", "qr-reverse", {
        "maxmin": (5946, 201, 2), "qr-greedy": (6021, 294, 4), "random": (12272, 1963, 209),
    }, id="4x4x3-df-mmse-qr-reverse"),
]


@pytest.mark.parametrize("dims,rules,trials,grid,expected", OUTAGE_CASES)
def test_outage_hits(dims, rules, trials, grid, expected):
    n_t, n_r, L = dims
    config = ExperimentConfig(n_t=n_t, n_r=n_r, L=L, rule=rules[0], trial_count=trials,
                              master_seed=SEED, grid=grid)
    assert {rule: curve.hits for rule, curve in estimate_outage_rules(config, rules).items()} == expected


@pytest.mark.parametrize("dims,rules,receiver,ordering,expected", BER_CASES)
def test_ber_errors(dims, rules, receiver, ordering, expected):
    n_t, n_r, L = dims
    config = ExperimentConfig(n_t=n_t, n_r=n_r, L=L, rule=rules[0], trial_count=1000, master_seed=SEED,
                              grid=(8.0, 14.0, 20.0), receiver=receiver, ordering=ordering, frame_symbols=50)
    curves = estimate_ber_rules(config, rules)
    assert {rule: curve.hits for rule, curve in curves.items()} == expected
    assert all(curve.trials == (1000 * L * 50 * 2,) * 3 for curve in curves.values())
