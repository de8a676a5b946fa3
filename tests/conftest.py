import pytest

from antsel import selection


@pytest.fixture
def pass_lanes(monkeypatch):
    """``set(lanes)`` gives every pass of the selection kernels ``lanes``
    channels (``_LATTICE_LANES`` and, at L = 2, ``_PAIR_LANES``, which
    also size the outage chunk's draw blocks) and returns a list that
    receives the channels of every pass from then on, so a test can
    assert that a block split: its widest pass is narrower than it."""
    passes = selection._passes

    def set_lanes(lanes):
        monkeypatch.setattr(selection, "_LATTICE_LANES", lanes)
        monkeypatch.setattr(selection, "_PAIR_LANES", lanes)
        widths = []

        def recorded(B, L):
            slices = list(passes(B, L))
            widths.extend(part.stop - part.start for part in slices)
            return iter(slices)

        monkeypatch.setattr(selection, "_passes", recorded)
        return widths

    return set_lanes
