import itertools
import math

import numpy as np
import pytest

from statpos import kernels
from statpos.kernels import TIE_TOL


def _first_argmax(values):
    """The tie-break rule: the smallest index within TIE_TOL of the maximum."""
    return int(np.argmax(values >= np.max(values) - TIE_TOL))


@pytest.mark.parametrize("values,expected", [
    ([-3.0, -1.0 - TIE_TOL / 2, -1.0], 1),      # near-tie within TIE_TOL
    ([-1.0 - 2 * TIE_TOL, -1.0], 1),            # gap beyond TIE_TOL
    ([-2.0, 0.5, 0.5, 0.1], 1),                 # exact tie
    ([-math.inf, -math.inf, -math.inf], 0),     # all -inf
    ([-1.0, math.nan, 0.0], 0),                 # NaN: nothing reaches the max
])
def test_first_argmax_picks_smallest_index_of_the_maximum(values, expected):
    # the rule itself, and the kernel's choice of a one-word sentence's tag,
    # whose scores are the start scores alone
    values = np.array(values)
    assert _first_argmax(values) == expected
    T = len(values)
    zeros = np.zeros((1, T))
    assert kernels.viterbi(zeros, values, np.zeros((T, T)), zeros[0], [1])[0] == [[expected]]


def _path_score_bigram(path, emit, start, trans, end):
    score = start[path[0]] + end[path[-1]] + sum(emit[i, t] for i, t in enumerate(path))
    return score + sum(trans[a, b] for a, b in zip(path, path[1:]))


def _path_score_trigram(path, emit, start2, tri, tri_end):
    ctx = [emit.shape[1]] + list(path)      # index T stands for START
    score = start2[path[0]] + sum(emit[i, t] for i, t in enumerate(path))
    score += sum(tri[ctx[i - 1], ctx[i], path[i]] for i in range(1, len(path)))
    return score + tri_end[ctx[-2], path[-1]]


def _share_rows(rng, tri):
    """Give about half the contexts (a, b) of a dense trigram table the row
    of context (0, b), as the contexts that never occur share their backoff
    row."""
    a, b = np.nonzero(rng.uniform(size=tri.shape[:2]) < 0.5)
    tri[a, b] = tri[0, b]


def _compressed(tables):
    """Kernel arguments for dense second-order tables (emit, start2, tri
    (T+1,T,T), tri_end): tri becomes its distinct (current tag, row) pairs
    (rows, ctx, state_row)."""
    emit, start, tri, end = tables
    T = emit.shape[1]
    keyed = np.column_stack([np.tile(np.arange(T), T + 1), tri.reshape(-1, T)])
    distinct, state_row = np.unique(keyed, axis=0, return_inverse=True)
    trans = (distinct[:, 1:], distinct[:, 0].astype(np.intp), state_row.reshape(-1))
    assert np.array_equal(trans[0][trans[2]], tri.reshape(-1, T))
    return emit, start, trans, end


def _random_tables(rng, order):
    """Tables of T in 1..4 tags for 1..6 words, with logs rounded to 0.1 so
    that exact ties occur, and about one -inf entry in ten."""
    n, T = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    shapes = ([(n, T), (T,), (T, T), (T,)] if order == "bigram"
              else [(n, T), (T,), (T + 1, T, T), (T + 1, T)])
    tables = [np.round(np.log(rng.uniform(0.1, 1.0, shape)), 1) for shape in shapes]
    for table in tables:
        table[rng.uniform(size=table.shape) < 0.1] = -np.inf
    if order == "trigram":
        _share_rows(rng, tables[2])
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
        args = tables if order == "bigram" else _compressed(tables)
        (path,), (score,) = kernels.viterbi(*args, [n])
        marginal_path, marginal_score, margins = kernels.max_marginals(*args)
        assert (marginal_path, marginal_score) == (path, score)
        scores = {p: score_of(p, *tables) for p in itertools.product(range(T), repeat=n)}
        best = max(scores.values())
        # enumeration runs in lexicographic order
        assert tuple(path) == next(p for p, s in scores.items() if s >= best - TIE_TOL)
        expected = np.full((n, T), -np.inf)
        for p, s in scores.items():
            for i, t in enumerate(p):
                expected[i, t] = max(expected[i, t], s)
        assert score == pytest.approx(best, rel=1e-12)
        assert np.array_equal(np.isneginf(margins), np.isneginf(expected))
        finite = np.isfinite(expected)
        assert np.allclose(margins[finite], expected[finite], rtol=1e-12, atol=0)


def _stepwise_kernel(emit, start, trans, end):
    """Reference for viterbi and max_marginals: a fresh candidate array per
    backward position and one _first_argmax per path position, for either
    order; returns the path, its score and the margins."""
    n, T = emit.shape
    beta = np.empty((n,) + end.shape)
    beta[n - 1] = emit[n - 1] + end
    for i in range(n - 2, -1, -1):
        beta[i] = emit[i] + np.max(trans + beta[i + 1, :T], axis=-1)
    rows, last = trans.reshape(-1, T), T ** (trans.ndim - 2)
    states = beta.reshape(n, -1, T)
    s = states.shape[1] - 1
    totals = start + states[0, s]
    path = [_first_argmax(totals)]
    score = totals[path[0]]
    if score == -np.inf:
        path = [0] * n
    else:
        s = s * T + path[0]
        for i in range(1, n):
            t = _first_argmax(rows[s] + states[i, s % last])
            path.append(t)
            s = (s % last) * T + t
    fwd = np.full(beta.shape, -np.inf)
    fwd[0].reshape(-1, T)[-1] = start
    for i in range(1, n):
        fwd[i][:T] = np.max((fwd[i - 1] + emit[i - 1])[..., None] + trans, axis=0)
    return path, score, (fwd + beta).reshape(n, -1, T).max(axis=1)


@pytest.mark.parametrize("block", [None, 1, 7, 50])
@pytest.mark.parametrize("order", ["bigram", "trigram"])
def test_long_sentences_match_the_stepwise_walk(order, block, monkeypatch):
    # Up to 500 words and 8 tags, logs rounded to 0.1 for exact ties and 15%
    # -inf entries; the last instances move entries TIE_TOL/2 or 2*TIE_TOL
    # down, so that candidates sit that far below a maximum at many
    # positions.  Small blocks make the backward pass of both orders take
    # its backpointers across block boundaries.  The second order
    # decodes the distinct rows of a dense table with shared rows, against
    # the dense reference.  Paths, scores and margins must be bit-identical.
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_CELLS", block)
    rng = np.random.default_rng(11)
    for near in [False] * 25 + [True] * 10:
        n, T = int(rng.integers(1, 501)), int(rng.integers(1, 9))
        shapes = ([(n, T), (T,), (T, T), (T,)] if order == "bigram"
                  else [(n, T), (T,), (T + 1, T, T), (T + 1, T)])
        tables = [np.round(np.log(rng.uniform(0.1, 1.0, shape)), 1) for shape in shapes]
        for table in tables:
            table[rng.uniform(size=table.shape) < 0.15] = -np.inf
            if near:
                table -= rng.choice([0, TIE_TOL / 2, 2 * TIE_TOL], size=table.shape)
        args = tables
        if order == "trigram":
            _share_rows(rng, tables[2])
            args = _compressed(tables)
        path, score, margins = _stepwise_kernel(*tables)
        assert kernels.viterbi(*args, [n]) == ([path], [score])
        marginal_path, marginal_score, marginal_margins = kernels.max_marginals(*args)
        assert (marginal_path, marginal_score) == (path, score)
        assert np.array_equal(marginal_margins, margins)


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("order", ["bigram", "trigram"])
def test_batches_match_the_stepwise_walk(order, block, monkeypatch):
    # Batches of up to 12 sentences of 1..300 words that share one model's
    # tables, with repeated lengths, logs rounded to 0.1 for exact ties,
    # 15% -inf entries and one sentence whose every path scores -inf; the
    # last batches move entries TIE_TOL/2 or 2*TIE_TOL down, for near-ties
    # at many positions.  Given the rows of all the sentences one after
    # another, in no order by length, each sentence's path and score must be
    # bit-identical to its own step-wise decoding.
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_CELLS", block)
    rng = np.random.default_rng(13)
    for near in [False] * 8 + [True] * 4:
        T = int(rng.integers(1, 8))
        B = int(rng.integers(1, 13))
        lengths = rng.choice([1, 2, 5, 40, 41, 300], size=B).tolist()
        shapes = ([(T,), (T, T), (T,)] if order == "bigram"
                  else [(T,), (T + 1, T, T), (T + 1, T)])
        start, trans, end = [np.round(np.log(rng.uniform(0.1, 1.0, shape)), 1)
                             for shape in shapes]
        for table in (start, trans, end):
            table[rng.uniform(size=table.shape) < 0.15] = -np.inf
        emits = [np.round(np.log(rng.uniform(0.1, 1.0, (m, T))), 1) for m in lengths]
        for e in emits:
            e[rng.uniform(size=e.shape) < 0.15] = -np.inf
        emits[rng.integers(B)][0] = -np.inf
        if near:
            for table in (start, trans, end, *emits):
                table -= rng.choice([0, TIE_TOL / 2, 2 * TIE_TOL], size=table.shape)
        args = (start, trans, end)
        if order == "trigram":
            _share_rows(rng, trans)
            args = _compressed((emits[0], start, trans, end))[1:]
        paths, scores = kernels.viterbi(np.concatenate(emits), *args, lengths)
        expected = [_stepwise_kernel(e, start, trans, end)[:2] for e in emits]
        assert paths == [p for p, _ in expected]
        assert scores == [s for _, s in expected]


def test_each_step_covers_exactly_the_live_sentences():
    # step i of the backward pass computes position i for the sentences that
    # have one there, a prefix of the longest-first batch, and no padding
    assert [(a, list(s)) for a, s in kernels._runs([5, 5, 3, 1], 5)] == [(3, [3, 2]), (2, [1, 0])]
    rng = np.random.default_rng(5)
    for _ in range(50):
        lengths = sorted(rng.integers(1, 30, size=int(rng.integers(1, 9))).tolist(), reverse=True)
        n = lengths[0]
        steps = [(i, a) for a, run in kernels._runs(lengths, n) for i in run]
        assert [i for i, _ in steps] == list(range(n - 2, -1, -1))
        assert all(a == sum(m >= n - i for m in lengths) for i, a in steps)


@pytest.mark.parametrize("order", ["bigram", "trigram"])
def test_blocks_that_end_inside_a_run_and_runs_shorter_than_a_block(order, monkeypatch):
    # A block of 12 positions of one sentence: the runs of 5 and 3 live
    # sentences split into blocks, and the run of 2 is shorter than its
    # block.  Paths and scores of the batch, and each sentence's margins with
    # blocks of one cell, must be bit-identical to the step-wise walk.
    rng = np.random.default_rng(17)
    T = 4
    lengths = [5, 41, 1, 300, 2, 40, 5]
    shapes = [(T,), (T, T), (T,)] if order == "bigram" else [(T,), (T + 1, T, T), (T + 1, T)]
    start, trans, end = [np.round(np.log(rng.uniform(0.1, 1.0, shape)), 1) for shape in shapes]
    emits = [np.round(np.log(rng.uniform(0.1, 1.0, (m, T))), 1) for m in lengths]
    for table in (start, trans, end, *emits):
        table[rng.uniform(size=table.shape) < 0.15] = -np.inf
    args = (start, trans, end)
    width = T
    if order == "trigram":
        _share_rows(rng, trans)
        args = _compressed((emits[0], start, trans, end))[1:]
        width = len(args[1][1])
    monkeypatch.setattr(kernels, "BLOCK_CELLS", 12 * T * width)
    runs = {a: len(steps) for a, steps in kernels._runs(sorted(lengths, reverse=True), 300)}
    assert runs[5] > 12 // 5 and runs[3] > 12 // 3 and runs[2] < 12 // 2
    expected = [_stepwise_kernel(e, start, trans, end) for e in emits]
    assert kernels.viterbi(np.concatenate(emits), *args, lengths) == (
        [p for p, _, _ in expected], [s for _, s, _ in expected])
    monkeypatch.setattr(kernels, "BLOCK_CELLS", 1)
    for e, (path, score, margins) in zip(emits, expected):
        marginal_path, marginal_score, marginal_margins = kernels.max_marginals(e, *args)
        assert (marginal_path, marginal_score) == (path, score)
        assert np.array_equal(marginal_margins, margins)
