"""Viterbi decoding kernel: one numpy max-product dynamic program for both
model orders, over a batch of sentences.

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

`viterbi` takes the emission rows (N,T) of every word of its sentences, one
sentence after another, and their `lengths`, and returns the paths and
scores in that order.  It lays the sentences out itself, in batches of at
most BATCH_CELLS cells of beta and backpointers: a batch of B sentences is
position-major, (n,B,T), sorted longest first and right-aligned at the shared
last position n-1, so sentence b of lengths[b] words starts at offset n -
lengths[b], and the sentences live at position i are a prefix [:a] of the
batch (`_runs`).  One numpy step per position serves all of them, and no
arithmetic runs on the padding before a sentence starts.  One sentence is the
batch of one, and its rows need no copy.

The backward pass (`_backward`) fills beta[i, b], the best score of positions
i..n-1 of sentence b given the state at i.  `viterbi` reconstructs each path
forward from beta, starting at start + beta[offset_b, b]; `max_marginals`
(one sentence) also runs the forward pass for fwd[i], the best score of
positions 0..i-1 plus the transition into the state at i, so fwd + beta,
maximized over the state's context, is the best total score with position i
pinned to each tag (fwd leaves out the emission at i, which beta holds).

Path reconstruction picks, at every step, the smallest tag index among the
candidates that achieve the maximum (within TIE_TOL), so the returned
sequence is the lexicographically smallest maximizer.  When every path of a
sentence scores -inf they all tie, and its path is all zeros.  The maximum
over a state's candidates is taken once, in the backward pass, one row of
candidates per distinct transition row k (for the first order, its T states).
The pass keeps the candidates and maxima of a block of positions, at most
BLOCK_CELLS candidates unless one position holds more, and takes the block's
backpointers (one per sentence, row and position) in one whole-array step once
the block is done: each position runs only the add, the maximum and the step to
beta (the second order also gathers beta by context and the maxima by state),
and the path walk only looks the backpointers up.  The backpointers compare
the same floats that a first maximum taken at each position would.

All inputs are float64 log-probability tables; tag indices follow the
lexicographic ordering of the tag labels.
"""

import itertools

import numpy as np

# Path reconstruction treats candidates within this margin of the maximum as
# tied and picks the smallest tag index.  Exact ties re-summed in a different
# order drift by ~1e-13; genuinely distinct paths differ by far more.
TIE_TOL = 1e-10

# Most candidates that one block of the backward pass holds (256 KB of
# float64, so that a block stays in L2 cache).
BLOCK_CELLS = 1 << 15

# Most cells of beta and the backpointers, padding included, that one batch
# of sentences holds (8 MB of float64).
BATCH_CELLS = 1 << 20


def _runs(lengths, n):
    """The backward steps n-2..0, last first, in runs that share one live
    prefix a of the batch: (a, steps)."""
    hi = n - 2
    for a in range(len(lengths), 0, -1):
        lo = n - lengths[a - 1]     # where the shortest live sentence starts
        if lo <= hi:
            yield a, range(hi, lo - 1, -1)
            hi = lo - 1


def _backward(emit, trans, end, lengths):
    """beta (n,B,...), set at the live positions only, and the backpointers
    bp (n,B,K): bp[i, b, k] is the first best tag at position i of sentence b
    after a state whose row is k (the first order's row is its state)."""
    n, B, T = emit.shape
    beta = np.empty((n, B) + end.shape)
    first = end.ndim == 1
    if first:
        # cand[b, c, s] = trans[s, c] + beta[i+1, b, c]
        rows, nxt = trans.T[None].copy(), beta[:, :, :, None]
    else:
        # cand[b, c, k] = rows[k, c] + beta[i+1, b, ctx[k], c]: row k's
        # candidates read the beta row of its current tag
        rows, ctx, state_row = trans
        rows = rows.T[None].copy()
        gather = ctx * T + np.arange(T)[:, None]
        state_row = state_row.reshape(-1, T)    # the row of each (previous, current) pair
        nxt = beta.reshape(n, B, -1)
        # the emissions broadcast over the state's context
        emit = emit[:, :, None]
    beta[n - 1] = emit[n - 1] + end
    # the candidates (B, next tag c, row k) of one position, laid out so that
    # the max and the first maximum run down the short axis c, which numpy
    # does faster; (1,T,K) rows add to one sentence's step without broadcasting
    K = rows.shape[2]
    bp = np.empty((n, B, K), dtype=np.intp)
    # each run's positions in blocks of at most BLOCK_CELLS candidates (or one
    # position), kept with their maxima until the block's backpointers are taken
    for a, steps in _runs(lengths, n):
        nx, em, out = nxt[:, :a], emit[:, :a], beta[:, :a]
        step = min(len(steps), max(1, BLOCK_CELLS // (a * T * K)))
        c, best = np.empty((step, a, T, K)), np.empty((step, a, K))
        for p in range(0, len(steps), step):
            # positions lo..lo+m-1, walked down: c[i - lo] holds position i's candidates
            block = steps[p:p + step]
            lo, m = block[-1], len(block)
            for i, ci, bi in zip(block, c[m - 1::-1], best[m - 1::-1]):
                np.add(rows, nx[i + 1] if first else nx[i + 1].take(gather, axis=1), out=ci)
                np.maximum.reduce(ci, axis=1, out=bi)
                np.add(em[i], bi if first else bi.take(state_row, axis=1), out=out[i])
            # bp[i + 1] of every position i of the block in one step
            tied = c[:m] >= (best[:m] - TIE_TOL)[:, :, None]
            tied.argmax(axis=2, out=bp[lo + 1:lo + m + 1, :a])
    return beta, bp


def _path(start, trans, beta, bp, lengths):
    """The best path and its score of every sentence of the batch, from what
    _backward returns: beta and the backpointers bp."""
    n, B, T = beta.shape[0], beta.shape[1], beta.shape[-1]
    offsets = [n - m for m in lengths]
    # each sentence's first position, in its START context
    totals = start + beta.reshape(n * B, -1)[[o * B + b for b, o in enumerate(offsets)], -T:]
    best = np.maximum.reduce(totals, axis=1, keepdims=True)
    best -= TIE_TOL
    first = (totals >= best).argmax(axis=1).tolist()
    scores = [row[t] for row, t in zip(totals.tolist(), first)]
    paths = [[t] for t in first]
    # state s is the tag (last = 1), or the pair previous tag * T + current
    # tag with previous tag T for START (last = T); the next state keeps s % last
    state_row = trans[2].tolist() if isinstance(trans, tuple) else range(T)
    states, last, first_best = beta[0, 0].size, T ** (beta.ndim - 3), bp.item
    for b, (path, o) in enumerate(zip(paths, offsets)):
        s = states - T + path[0]    # the first tag, in the START context
        for i in range(o + 1, n):
            t = first_best(i, b, state_row[s])
            path.append(t)
            s = (s % last) * T + t
    for b, score in enumerate(scores):
        if score == -np.inf:
            # every path scores -inf, so all tie and the smallest is all zeros
            paths[b] = [0] * lengths[b]
    return paths, scores


def viterbi(emit, start, trans, end, lengths):
    """The best paths and their scores of the sentences of lengths[j] words
    whose rows emit (N,T) holds one after another, in their order."""
    if len(lengths) == 1:
        return _path(start, trans, *_backward(emit[:, None], trans, end, lengths), lengths)
    T = emit.shape[1]
    # cells per position and sentence: beta, and one backpointer per
    # transition row (the first order's rows are its T states)
    width = end.size + (len(trans[1]) if end.ndim == 2 else T)
    bounds = list(itertools.accumulate(lengths, initial=0))
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    paths, scores = [None] * len(lengths), [None] * len(lengths)
    lo = 0
    while lo < len(order):
        n = lengths[order[lo]]
        batch = order[lo:lo + max(1, BATCH_CELLS // (n * width))]
        lo += len(batch)
        # right-aligned at position n - 1, position-major
        block = np.empty((n, len(batch), T))
        for b, j in enumerate(batch):
            block[n - lengths[j]:, b] = emit[bounds[j]:bounds[j + 1]]
        sizes = [lengths[j] for j in batch]
        found = _path(start, trans, *_backward(block, trans, end, sizes), sizes)
        for j, path, score in zip(batch, *found):
            paths[j], scores[j] = path, score
    return paths, scores


# The benchmark times the kernel under one name per model order, so both
# names stay, bound to the one viterbi.
viterbi_bigram = viterbi_trigram = viterbi


def max_marginals(emit, start, trans, end):
    """Best path of one sentence, emit (n,T), its score, and margins (n,T):
    margins[i, t] is the best total score with position i pinned to tag t."""
    n, T = emit.shape
    beta, bp = _backward(emit[:, None], trans, end, [n])
    (path,), (score,) = _path(start, trans, beta, bp, [n])
    beta = beta[:, 0]
    if isinstance(trans, tuple):
        rows, _, state_row = trans
        trans = rows[state_row].reshape(-1, T, T)
    fwd = np.full(beta.shape, -np.inf)
    fwd[0].reshape(-1, T)[-1] = start       # the START context
    for i in range(1, n):
        # fwd[i, (b, c)] = max over a of fwd[i-1, (a, b)] + emit[i-1, b] + trans[(a, b), c]
        fwd[i][:T] = np.max((fwd[i - 1] + emit[i - 1])[..., None] + trans, axis=0)
    return path, score, (fwd + beta).reshape(n, -1, T).max(axis=1)
