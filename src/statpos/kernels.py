"""Viterbi decoding kernels: one numpy max-product dynamic program per model
order.

Each order's recurrence is written once.  The backward pass
(`_backward_bigram`, `_backward_trigram`) fills beta[i], the best score of
positions i..n-1 given the state at i (a tag for the bigram, the pair of the
previous and current tag for the trigram).  `viterbi_*` reconstructs the path
forward from beta; `max_marginals_*` also runs the forward pass for fwd[i],
the best score of positions 0..i-1 plus the transition into the state at i,
so fwd + beta at a position is the best total score with that position
pinned to each tag (fwd leaves out the emission at i, which beta holds).

Path reconstruction picks, at every step, the smallest tag index among the
candidates that achieve the maximum (within TIE_TOL), so the returned
sequence is the lexicographically smallest maximizer.

All inputs are float64 log-probability tables; tag indices follow the
lexicographic ordering of the tag labels.
"""

import numpy as np

# Path reconstruction treats candidates within this margin of the maximum as
# tied and picks the smallest tag index.  Exact ties re-summed in a different
# order drift by ~1e-13; genuinely distinct paths differ by far more.
TIE_TOL = 1e-10


def _first_argmax(values):
    return int(np.argmax(values >= np.max(values) - TIE_TOL))


# --- first order: emit (n,T); start (T,); trans (T,T); end (T,) --------------
# Interior transitions are whatever `trans` holds, so the HMM decoder can pass
# doubled weights.

def _backward_bigram(emit, trans, end):
    n, T = emit.shape
    beta = np.empty((n, T))
    beta[n - 1] = emit[n - 1] + end
    for i in range(n - 2, -1, -1):
        beta[i] = emit[i] + np.max(trans + beta[i + 1][None, :], axis=1)
    return beta


def _path_bigram(start, trans, beta):
    n = beta.shape[0]
    path = np.empty(n, dtype=np.int64)
    totals = start + beta[0]
    path[0] = _first_argmax(totals)
    score = totals[path[0]]
    for i in range(1, n):
        cand = trans[path[i - 1]] + beta[i]
        path[i] = _first_argmax(cand)
    return path, score


def viterbi_bigram(emit, start, trans, end):
    """Best path and its score."""
    return _path_bigram(start, trans, _backward_bigram(emit, trans, end))


def max_marginals_bigram(emit, start, trans, end):
    """Best path, its score, and margins (n,T): margins[i, t] is the best
    total score with position i pinned to tag t."""
    beta = _backward_bigram(emit, trans, end)
    path, score = _path_bigram(start, trans, beta)
    n, T = emit.shape
    fwd = np.empty((n, T))
    fwd[0] = start
    for i in range(1, n):
        fwd[i] = np.max((fwd[i - 1] + emit[i - 1])[:, None] + trans, axis=0)
    return path, score, fwd + beta


# --- second order: emit (n,T); start2 (T,) = P(t1|START,START); tri (T+1,T,T)
# with row T holding the START context; tri_end (T+1,T) = P(END | a, b) -------

def _backward_trigram(emit, tri, tri_end):
    n, T = emit.shape
    beta = np.empty((n, T + 1, T))
    beta[n - 1] = emit[n - 1][None, :] + tri_end
    for i in range(n - 2, -1, -1):
        # max over successor c of tri[a, b, c] + beta[i+1, b, c]
        beta[i] = emit[i][None, :] + np.max(tri + beta[i + 1, :T][None, :, :], axis=2)
    return beta


def _path_trigram(start2, tri, beta):
    n, T = beta.shape[0], beta.shape[2]
    path = np.empty(n, dtype=np.int64)
    totals = start2 + beta[0, T]
    path[0] = _first_argmax(totals)
    score = totals[path[0]]
    for i in range(1, n):
        a = T if i == 1 else path[i - 2]
        b = path[i - 1]
        cand = tri[a, b] + beta[i, b]
        path[i] = _first_argmax(cand)
    return path, score


def viterbi_trigram(emit, start2, tri, tri_end):
    """Best path and its score."""
    return _path_trigram(start2, tri, _backward_trigram(emit, tri, tri_end))


def max_marginals_trigram(emit, start2, tri, tri_end):
    """Best path, its score, and margins (n,T) as in max_marginals_bigram."""
    beta = _backward_trigram(emit, tri, tri_end)
    path, score = _path_trigram(start2, tri, beta)
    n, T = emit.shape
    # pair states (t_{i-1}, t_i); axis index T = START
    fwd = np.full((n, T + 1, T), -np.inf)
    fwd[0, T] = start2
    for i in range(1, n):
        # fwd[i, b, c] = max_a fwd[i-1, a, b] + emit[i-1, b] + tri[a, b, c]
        fwd[i, :T] = np.max((fwd[i - 1] + emit[i - 1][None, :])[:, :, None] + tri, axis=0)
    return path, score, np.max(fwd + beta, axis=1)
