"""Viterbi decoding kernel: one numpy max-product dynamic program for both
model orders.

A state is the tag context that the transitions read, and the shape of `end`
sets the order.  The bigram's state is the current tag: `trans` is (T,T),
indexed by state and next tag, and `end` is (T,).  The trigram's state is the
pair of the previous and current tag, s = a * T + b, where previous index T
stands for START, and `end` is (T+1,T).  Its `trans` is the triple (rows,
ctx, state_row): state s moves to next tag c with rows[state_row[s], c], and
ctx[k] is the current tag of the states that read row k.  Interpolated
trigram contexts that never occur in training share one backoff row per
current tag, so rows holds K distinct rows, far fewer than the (T+1)*T
states.  `start` (T,) leaves the START context.  Interior transitions are
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
backpointers after the backward pass in one whole-array step, in blocks of
BLOCK_CELLS candidates.  The second order takes them in the backward pass,
one per row and position from the candidates it already holds, so the path
walk only looks them up.

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
    """beta and, for the second order, the backpointers bp (n,K): bp[i, k] is
    the first best tag at position i after a state whose row is k."""
    n, T = emit.shape
    beta = np.empty((n,) + end.shape)
    beta[n - 1] = emit[n - 1] + end
    if end.ndim == 1:
        cand = np.empty(trans.shape)
        for i in range(n - 2, -1, -1):
            # max over the next tag c of trans[state, c] + beta[i+1, c]
            np.add(trans, beta[i + 1], out=cand)
            np.add(emit[i], cand.max(axis=1), out=beta[i])
        return beta, None
    rows, ctx, state_row = trans
    # cand[c, k] = rows[k, c] + beta[i+1, ctx[k], c]: row k's candidates read
    # the beta row of its current tag, laid out so that the max and the first
    # maximum run down the short first axis, which numpy does faster
    rows = rows.T.copy()
    gather = ctx * T + np.arange(T)[:, None]
    flat = beta.reshape(n, -1)
    cand = np.empty(rows.shape)
    bp = np.empty((n, len(ctx)), dtype=np.intp)
    for i in range(n - 2, -1, -1):
        np.add(rows, flat[i + 1].take(gather), out=cand)
        best = cand.max(axis=0)
        bp[i + 1] = (cand >= best - TIE_TOL).argmax(axis=0)
        np.add(emit[i], best.take(state_row).reshape(-1, T), out=beta[i])
    return beta, bp


def _path(start, trans, beta, bp):
    n, T = beta.shape[0], beta.shape[-1]
    totals = start + beta[0].reshape(-1, T)[-1]     # the START context
    path = [_first_argmax(totals)]
    score = totals[path[0]]
    if score == -np.inf:
        # every path scores -inf, so all tie and the smallest is all zeros
        return [0] * n, score
    if bp is None:
        # bp[k, s] is the first best tag at position lo + k after tag s
        step = max(1, BLOCK_CELLS // T ** 2)
        for lo in range(1, n, step):
            cand = trans + beta[lo:lo + step, None]
            bp = (cand >= cand.max(axis=2, keepdims=True) - TIE_TOL).argmax(axis=2)
            for row in bp.tolist():
                path.append(row[path[-1]])
        return path, score
    # the pair state s = previous tag * T + current tag, previous tag T for START
    state_row, first_best = trans[2].tolist(), bp.item
    s = T * T + path[0]
    for i in range(1, n):
        t = first_best(i, state_row[s])
        path.append(t)
        s = (s % T) * T + t
    return path, score


def viterbi(emit, start, trans, end):
    """Best path and its score."""
    return _path(start, trans, *_backward(emit, trans, end))


# The benchmark times the kernel under one name per model order, so both
# names stay, bound to the one viterbi.
viterbi_bigram = viterbi_trigram = viterbi


def max_marginals(emit, start, trans, end):
    """Best path, its score, and margins (n,T): margins[i, t] is the best
    total score with position i pinned to tag t."""
    beta, bp = _backward(emit, trans, end)
    path, score = _path(start, trans, beta, bp)
    n, T = emit.shape
    if bp is not None:
        rows, _, state_row = trans
        trans = rows[state_row].reshape(-1, T, T)
    fwd = np.full(beta.shape, -np.inf)
    fwd[0].reshape(-1, T)[-1] = start       # the START context
    for i in range(1, n):
        # fwd[i, (b, c)] = max over a of fwd[i-1, (a, b)] + emit[i-1, b] + trans[(a, b), c]
        fwd[i][:T] = np.max((fwd[i - 1] + emit[i - 1])[..., None] + trans, axis=0)
    return path, score, (fwd + beta).reshape(n, -1, T).max(axis=1)
