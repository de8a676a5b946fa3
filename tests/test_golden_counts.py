"""Golden hit and bit-error counts of the multi-rule passes.

Kernel rewrites must leave every count on a fixed seed unchanged, so a
rewrite that moves one fails here and its before and after values go in
CHANGES.md.  The counts are those of RNG layout 2 (every chunk stream an
SFC64 generator keyed by a SeedSequence); a change of layout re-pins them
with the same seeds, trials and grids.  The nine tests take about a
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
        "maxmin": (0, 1, 1, 2, 7, 41, 202, 975, 4308, 16193, 49121, 109644),
        "first-fixed": (0, 1, 1, 2, 3, 20, 66, 291, 1417, 5847, 20539, 57226),
        "first-ordered": (0, 0, 0, 0, 0, 2, 6, 31, 166, 985, 5546, 25241),
        "qr-greedy": (0, 1, 1, 4, 13, 58, 282, 1331, 5388, 18735, 53135, 112985),
        "random": (83, 181, 414, 838, 1810, 4031, 8765, 18209, 36479, 67369, 111575, 157893),
    }, id="3x3x2"),
    pytest.param((8, 8, 4), GENERAL_L_RULES, 10_000, tuple(np.geomspace(0.5, 8.0, 10)), {
        "maxmin": (0, 0, 0, 0, 0, 0, 23, 757, 5923, 9774),
        "random": (8, 25, 91, 328, 1009, 2675, 5462, 8387, 9819, 9997),
        "qr-greedy": (0, 0, 0, 0, 0, 2, 79, 1398, 6697, 9813),
    }, id="8x8x4"),
]

#: (dims, rules, receiver, feedback, ordering, bit errors at 8, 14 and 20 dB) of 1000 frames
BER_CASES = [
    pytest.param((3, 3, 2), RULES, "df-zf", "actual", None, {
        "maxmin": (1713, 28, 1), "first-fixed": (2326, 61, 1), "first-ordered": (2109, 64, 1),
        "qr-greedy": (2091, 54, 1), "random": (5062, 474, 39),
    }, id="3x3x2-df-zf"),
    pytest.param((3, 3, 2), RULES, "df-mmse", "actual", None, {
        "maxmin": (1671, 26, 1), "first-fixed": (2236, 60, 1), "first-ordered": (2030, 64, 1),
        "qr-greedy": (1989, 42, 1), "random": (4587, 399, 21),
    }, id="3x3x2-df-mmse"),
    pytest.param((4, 4, 3), GENERAL_L_RULES, "df-zf", "actual", "vblast", {
        "maxmin": (4143, 40, 0), "qr-greedy": (3990, 31, 0), "random": (9573, 442, 26),
    }, id="4x4x3-df-zf-vblast"),
    pytest.param((4, 4, 3), GENERAL_L_RULES, "df-mmse", "actual", "qr-reverse", {
        "maxmin": (5735, 156, 1), "qr-greedy": (5818, 226, 1), "random": (12309, 1652, 125),
    }, id="4x4x3-df-mmse-qr-reverse"),
    pytest.param((3, 3, 2), ("qr-greedy",), "zf", "actual", None, {"qr-greedy": (2215, 50, 1)}, id="3x3x2-zf"),
    pytest.param((3, 3, 2), ("qr-greedy",), "mmse", "actual", None, {"qr-greedy": (1915, 37, 1)}, id="3x3x2-mmse"),
    pytest.param((3, 3, 2), ("qr-greedy",), "df-zf", "genie", None, {"qr-greedy": (1868, 50, 1)}, id="3x3x2-df-zf-genie"),
]


@pytest.mark.parametrize("dims,rules,trials,grid,expected", OUTAGE_CASES)
def test_outage_hits(dims, rules, trials, grid, expected):
    n_t, n_r, L = dims
    config = ExperimentConfig(n_t=n_t, n_r=n_r, L=L, rule=rules[0], trial_count=trials,
                              master_seed=SEED, grid=grid)
    assert {rule: curve.hits for rule, curve in estimate_outage_rules(config, rules).items()} == expected


@pytest.mark.parametrize("dims,rules,receiver,feedback,ordering,expected", BER_CASES)
def test_ber_errors(dims, rules, receiver, feedback, ordering, expected):
    n_t, n_r, L = dims
    config = ExperimentConfig(n_t=n_t, n_r=n_r, L=L, rule=rules[0], trial_count=1000, master_seed=SEED,
                              grid=(8.0, 14.0, 20.0), receiver=receiver, feedback=feedback,
                              ordering=ordering, frame_symbols=50)
    curves = estimate_ber_rules(config, rules)
    assert {rule: curve.hits for rule, curve in curves.items()} == expected
    assert all(curve.trials == (1000 * L * 50 * 2,) * 3 for curve in curves.values())
