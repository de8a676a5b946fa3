"""verify's batched measurements against their per-draw references, and
the rows of its table run one at a time."""

from dataclasses import replace

import pytest

from antsel import analytic, verify
from qr_oracle import reference_stage_oracle

SEED = 20250809


@pytest.mark.parametrize("seed", [*range(10), 20250809])
def test_stage_oracle_is_the_per_draw_loop(seed):
    worst, first_pick_ok = verify.qr_df_stage_oracle(verify.STAGE_ORACLE_DRAWS, seed)
    assert (worst, first_pick_ok) == reference_stage_oracle(verify.STAGE_ORACLE_DRAWS, seed)
    assert type(first_pick_ok) is bool
    assert worst < verify.STAGE_ORACLE_BOUND and first_pick_ok


def test_stage_oracle_needs_a_draw():
    with pytest.raises(ValueError, match="draws must be at least 1, got 0"):
        verify.qr_df_stage_oracle(0, 1)


def test_unknown_scale():
    with pytest.raises(ValueError, match="unknown scale 'x'"):
        verify.verification_rows(scale="x")


@pytest.fixture(scope="module")
def quick_table():
    return verify.run_verification("quick", SEED, 1)


# a row that reads another row's value, the row it reads, the function
# that measures the value, and the calls of that function the two rows make
READERS = [
    pytest.param("restricted/unrestricted slope gap", "quadrature slope (3,3)", analytic, "quadrature_slope", 2,
                 id="slope-gap"),
    pytest.param("diversity-multiplexing estimates", "outage slopes (3,3,2)", verify, "outage_slope_fits", 1,
                 id="dmt"),
]


@pytest.mark.parametrize("reader, read, module, measurement, calls", READERS)
def test_a_row_that_reads_another_row_runs_alone(quick_table, monkeypatch, reader, read, module, measurement,
                                                  calls):
    # run first, the reader measures the value it reads; the row that
    # value belongs to then reuses it, and both equal their table rows
    true_measurement = getattr(module, measurement)
    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return true_measurement(*args, **kwargs)

    monkeypatch.setattr(module, measurement, counted)
    names = [row.name for row in quick_table]
    rows = verify.verification_rows("quick", SEED, 1)
    for name in (reader, read):
        criteria, measure, verdict = rows[names.index(name)]
        alone = replace(verdict(measure()), criteria=criteria)
        assert alone == replace(quick_table[names.index(name)], seconds=0.0)
    assert len(made) == calls
