"""Seeded randomized property suites (each must complete its instances)."""

import pytest

from gl2tors import verify
from gl2tors.verify import PROPERTY_SUITES


@pytest.mark.parametrize("name,fn", PROPERTY_SUITES,
                         ids=[n for n, _ in PROPERTY_SUITES])
def test_property_suite(name, fn):
    assert fn() >= 100


def test_search_monotonicity_catches_a_shrinking_grid(monkeypatch):
    # Above height 20, where only the larger height of a pair reaches,
    # the grid loses the point 1/1.
    real = verify._grid_arrays

    def grid_arrays(height):
        p, q = real(height)
        if height <= 20:
            return p, q
        keep = (p != 1) | (q != 1)
        return p[keep], q[keep]
    monkeypatch.setattr(verify, "_grid_arrays", grid_arrays)
    with pytest.raises(AssertionError,
                       match=r"^_grid_arrays\(\d+\) pairs not inside "
                             r"_grid_arrays\(\d+\)$"):
        verify.prop_search_monotonicity()
