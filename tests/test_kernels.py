import math

import numpy as np
import pytest

from statpos.kernels import TIE_TOL, _first_argmax


@pytest.mark.parametrize("values,expected", [
    ([-3.0, -1.0 - TIE_TOL / 2, -1.0], 1),      # near-tie within TIE_TOL
    ([-1.0 - 2 * TIE_TOL, -1.0], 1),            # gap beyond TIE_TOL
    ([-2.0, 0.5, 0.5, 0.1], 1),                 # exact tie
    ([-math.inf, -math.inf, -math.inf], 0),     # all -inf
    ([-1.0, math.nan, 0.0], 0),                 # NaN: nothing reaches the max
])
def test_first_argmax_picks_smallest_index_of_the_maximum(values, expected):
    assert _first_argmax(np.array(values)) == expected
