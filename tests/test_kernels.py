import itertools
import math

import numpy as np
import pytest

from statpos import kernels
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


def _path_score_bigram(path, emit, start, trans, end):
    score = start[path[0]] + end[path[-1]] + sum(emit[i, t] for i, t in enumerate(path))
    return score + sum(trans[a, b] for a, b in zip(path, path[1:]))


def _path_score_trigram(path, emit, start2, tri, tri_end):
    ctx = [emit.shape[1]] + list(path)      # index T stands for START
    score = start2[path[0]] + sum(emit[i, t] for i, t in enumerate(path))
    score += sum(tri[ctx[i - 1], ctx[i], path[i]] for i in range(1, len(path)))
    return score + tri_end[ctx[-2], path[-1]]


def _random_tables(rng, order):
    """Tables of T in 1..4 tags for 1..6 words, with logs rounded to 0.1 so
    that exact ties occur, and about one -inf entry in ten."""
    n, T = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    shapes = ([(n, T), (T,), (T, T), (T,)] if order == "bigram"
              else [(n, T), (T,), (T + 1, T, T), (T + 1, T)])
    tables = [np.round(np.log(rng.uniform(0.1, 1.0, shape)), 1) for shape in shapes]
    for table in tables:
        table[rng.uniform(size=table.shape) < 0.1] = -np.inf
    return tables


@pytest.mark.parametrize("order", ["bigram", "trigram"])
def test_max_marginals_with_zero_probability_emission(order):
    # A tag that cannot emit a word is -inf in emit; its margin must be -inf
    # and every other margin the best score over the paths through it.  The
    # path is the lexicographically smallest maximizer.  The first instance is
    # fixed; the random ones add exact ties and -inf transitions.
    rng = np.random.default_rng(3)
    n, T = 4, 3
    emit = np.log(rng.uniform(0.1, 1.0, (n, T)))
    emit[1, 0] = emit[2, 2] = -np.inf
    if order == "bigram":
        tables = (emit, np.log(rng.uniform(0.1, 1.0, T)),
                  np.log(rng.uniform(0.1, 1.0, (T, T))), np.log(rng.uniform(0.1, 1.0, T)))
        score_of = _path_score_bigram
    else:
        tables = (emit, np.log(rng.uniform(0.1, 1.0, T)),
                  np.log(rng.uniform(0.1, 1.0, (T + 1, T, T))),
                  np.log(rng.uniform(0.1, 1.0, (T + 1, T))))
        score_of = _path_score_trigram
    for tables in [tables] + [_random_tables(rng, order) for _ in range(100)]:
        n, T = tables[0].shape
        path, score = kernels.viterbi(*tables)
        marginal_path, marginal_score, margins = kernels.max_marginals(*tables)
        assert (marginal_path, marginal_score) == (path, score)
        scores = {p: score_of(p, *tables) for p in itertools.product(range(T), repeat=n)}
        best = max(scores.values())
        # enumeration runs in lexicographic order.  When every path scores
        # -inf they all tie, and the kernel returns one of them but not
        # necessarily the smallest.
        if best > -np.inf:
            assert tuple(path) == next(p for p, s in scores.items() if s >= best - TIE_TOL)
        expected = np.full((n, T), -np.inf)
        for p, s in scores.items():
            for i, t in enumerate(p):
                expected[i, t] = max(expected[i, t], s)
        assert score == pytest.approx(best, rel=1e-12)
        assert np.array_equal(np.isneginf(margins), np.isneginf(expected))
        finite = np.isfinite(expected)
        assert np.allclose(margins[finite], expected[finite], rtol=1e-12, atol=0)
