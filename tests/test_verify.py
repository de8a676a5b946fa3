"""verify's batched measurements against their per-draw references."""

import pytest

from antsel import verify
from qr_oracle import reference_stage_oracle


@pytest.mark.parametrize("seed", [*range(10), 20250809])
def test_stage_oracle_is_the_per_draw_loop(seed):
    worst, first_pick_ok = verify.qr_df_stage_oracle(verify.STAGE_ORACLE_DRAWS, seed)
    assert (worst, first_pick_ok) == reference_stage_oracle(verify.STAGE_ORACLE_DRAWS, seed)
    assert type(first_pick_ok) is bool
    assert worst < verify.STAGE_ORACLE_BOUND and first_pick_ok


def test_stage_oracle_needs_a_draw():
    with pytest.raises(ValueError, match="draws must be at least 1, got 0"):
        verify.qr_df_stage_oracle(0, 1)
