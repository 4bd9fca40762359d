"""Viterbi decoding kernel: one numpy max-product dynamic program for both
model orders.

A state is the tag context that the transition array `trans` reads, and the
rank of `trans` sets the order: (T,T) for the bigram, whose state is the
current tag, and (T+1,T,T) for the trigram, whose state is the pair of the
previous and current tag (previous index T stands for START).  The last axis
of `trans` is the next tag.  `start` (T,) leaves the START context, and `end`,
(T,) or (T+1,T), enters END from each state.  Interior transitions are
whatever `trans` holds, so the HMM decoder can pass doubled weights.

The backward pass (`_backward`) fills beta[i], the best score of positions
i..n-1 given the state at i.  `viterbi` reconstructs the path forward from
beta; `max_marginals` also runs the forward pass for fwd[i], the best score
of positions 0..i-1 plus the transition into the state at i, so fwd + beta,
maximized over the state's context, is the best total score with position i
pinned to each tag (fwd leaves out the emission at i, which beta holds).

Path reconstruction picks, at every step, the smallest tag index among the
candidates that achieve the maximum (within TIE_TOL), so the returned
sequence is the lexicographically smallest maximizer.  When every path scores
-inf they all tie, and the path is all zeros.  The first order takes all
backpointers in one whole-array step, in blocks of BLOCK_CELLS candidates; the
second order, with T times the candidates, walks step by step.

All inputs are float64 log-probability tables; tag indices follow the
lexicographic ordering of the tag labels.
"""

import numpy as np

# Path reconstruction treats candidates within this margin of the maximum as
# tied and picks the smallest tag index.  Exact ties re-summed in a different
# order drift by ~1e-13; genuinely distinct paths differ by far more.
TIE_TOL = 1e-10

# Most candidates the first-order path walk holds at once (2 MB of float64).
BLOCK_CELLS = 1 << 18


def _first_argmax(values):
    return int(np.argmax(values >= np.max(values) - TIE_TOL))


def _backward(emit, trans, end):
    n, T = emit.shape
    beta = np.empty((n,) + end.shape)
    beta[n - 1] = emit[n - 1] + end
    cand = np.empty(trans.shape)
    for i in range(n - 2, -1, -1):
        # max over the next tag c of trans[state, c] + beta[i+1] at the state c leads to
        np.add(trans, beta[i + 1, :T], out=cand)
        np.add(emit[i], cand.max(axis=-1), out=beta[i])
    return beta


def _path(start, trans, beta):
    n, T = beta.shape[0], beta.shape[-1]
    beta = beta.reshape(n, -1, T)
    s = beta.shape[1] - 1       # the START context
    totals = start + beta[0, s]
    path = [_first_argmax(totals)]
    score = totals[path[0]]
    if score == -np.inf:
        # every path scores -inf, so all tie and the smallest is all zeros
        return [0] * n, score
    if trans.ndim == 2:
        # bp[k, s] is the first best tag at position lo + k after tag s
        step = max(1, BLOCK_CELLS // T ** 2)
        for lo in range(1, n, step):
            cand = trans + beta[lo:lo + step]
            bp = (cand >= cand.max(axis=2, keepdims=True) - TIE_TOL).argmax(axis=2)
            for row in bp.tolist():
                path.append(row[path[-1]])
        return path, score
    # The pair state s = previous tag * T + current tag is a row of `rows`,
    # and s % T, its current tag, is the context the next state keeps.
    rows = trans.reshape(-1, T)
    s = s * T + path[0]
    for i in range(1, n):
        t = _first_argmax(rows[s] + beta[i, s % T])
        path.append(t)
        s = (s % T) * T + t
    return path, score


def viterbi(emit, start, trans, end):
    """Best path and its score."""
    return _path(start, trans, _backward(emit, trans, end))


# The benchmark times the kernel under one name per model order, so both
# names stay, bound to the one viterbi.
viterbi_bigram = viterbi_trigram = viterbi


def max_marginals(emit, start, trans, end):
    """Best path, its score, and margins (n,T): margins[i, t] is the best
    total score with position i pinned to tag t."""
    beta = _backward(emit, trans, end)
    path, score = _path(start, trans, beta)
    n, T = emit.shape
    fwd = np.full(beta.shape, -np.inf)
    fwd[0].reshape(-1, T)[-1] = start       # the START context
    for i in range(1, n):
        # fwd[i, (b, c)] = max over a of fwd[i-1, (a, b)] + emit[i-1, b] + trans[(a, b), c]
        fwd[i][:T] = np.max((fwd[i - 1] + emit[i - 1])[..., None] + trans, axis=0)
    return path, score, (fwd + beta).reshape(n, -1, T).max(axis=1)
