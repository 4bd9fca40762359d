"""Viterbi decoding kernel: one numpy max-product dynamic program for both
model orders, over a batch of sentences.

A state is the tag context that the transitions read, and `trans` sets the
order.  The bigram's state is the current tag: `trans` is (T,T), indexed by
state and next tag.  The trigram's state is the pair of the previous and
current tag, s = a * T + b, where previous index T stands for START.  Its
`trans` is the triple (rows, ctx, state_row): state s moves to next tag c with
rows[state_row[s], c], and ctx[k] is the current tag of the states that read
row k.  Interpolated trigram contexts that never occur in training share one
backoff row per current tag, so rows holds K distinct rows, far fewer than
the (T+1)*T states; the first order's K rows are its T states.  `end` (K,)
ends a sentence from each row: an unseen context's END entry is its backoff
row's too, so a row fixes its states' current tag, transitions and end, and
so their scores.  `start` (T,) leaves the START context.  Interior
transitions are whatever `trans` holds, so the HMM can pass doubled weights.

`viterbi` takes the emission rows (N,T) of every word of its sentences, one
sentence after another, and their `lengths`, and returns the paths and
scores in that order.  It lays the sentences out itself, in batches of at
most BATCH_CELLS cells of beta and backpointers: a batch of B sentences is
position-major, (n,B,T), sorted longest first and right-aligned at the shared
last position n-1, so sentence b of lengths[b] words starts at offset n -
lengths[b], and the sentences live at position i are a prefix [:a] of the
batch (`_runs`).  One numpy step per position serves all of them, with no
arithmetic on the padding, and one sentence is the batch of one, uncopied.

The backward pass (`_backward`) fills beta[i, b, k], the best score of
positions i..n-1 of sentence b from a state of row k.  `viterbi` walks each
path forward from start plus the beta of the START context's rows;
`max_marginals` (one sentence) spreads beta over the states and adds the
forward pass's fwd[i], the best score of positions 0..i-1 plus the transition
into the state at i: maximized over the state's context, fwd + beta is the
best total with position i pinned to each tag (beta holds the emission at i).

Path reconstruction picks, at every step, the smallest tag index among the
candidates that achieve the maximum (within TIE_TOL), so the returned
sequence is the lexicographically smallest maximizer.  When every path of a
sentence scores -inf they all tie, and its path is all zeros.  The backward
pass takes the maximum over a row's candidates once.  It keeps the candidates
and maxima of a block of positions, at most BLOCK_CELLS candidates unless one
position holds more, and takes the block's backpointers (one per sentence,
row and position) in one whole-array step once the block is done; the path
walk only looks them up.  Each position runs the add, the maximum and the
step to beta; the orders differ only in how the candidates read the next
beta, broadcast over the first order's states or, for the second, gathered by
the row of the next state.  The backpointers compare the same floats that a
first maximum taken at each position would.

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
    """beta and the backpointers bp, both (n,B,K) and set at the live positions
    only: beta[i, b, k] is the best score of positions i..n-1 of sentence b
    from a state of row k, and bp[i, b, k] the first best tag at i after it."""
    (n, B, T), K = emit.shape, end.size
    beta, bp = np.empty((n, B, K)), np.empty((n, B, K), dtype=np.intp)
    first = not isinstance(trans, tuple)
    if first:
        # cand[b, c, s] = trans[s, c] + beta[i+1, b, c]
        rows, nxt = trans.T[None].copy(), beta[:, :, :, None]
    else:
        # cand[b, c, k] = rows[k, c] + beta[i+1, b, gather[c, k]]: row k's
        # candidates read the row of the next state, (ctx[k], c)
        rows, ctx, state_row = trans
        rows = rows.T[None].copy()
        gather = state_row[ctx * T + np.arange(T)[:, None]]
        nxt = beta
        # row k's emissions are those of its current tag
        emit = emit.take(ctx, axis=2)
    beta[n - 1] = emit[n - 1] + end
    # the candidates (B, next tag c, row k) of one position, laid out so that
    # the max and the first maximum run down the short axis c, which numpy
    # does faster; (1,T,K) rows add to one sentence's step without broadcasting.
    # Each run's positions in blocks of at most BLOCK_CELLS candidates (or one
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
                np.add(em[i], bi, out=out[i])
            # bp[i + 1] of every position i of the block in one step
            tied = c[:m] >= (best[:m] - TIE_TOL)[:, :, None]
            tied.argmax(axis=2, out=bp[lo + 1:lo + m + 1, :a])
    return beta, bp


def _path(start, trans, beta, bp, lengths):
    """The best path and its score of every sentence of the batch, from what
    _backward returns: beta and the backpointers bp."""
    n, B, T = beta.shape[0], beta.shape[1], len(start)
    offsets = [n - m for m in lengths]
    # state s is the tag (last = 1), or the pair previous tag * T + current
    # tag with previous tag T for START (last = T); the next state keeps s % last
    state_row, last = (trans[2], T) if isinstance(trans, tuple) else (np.arange(T), 1)
    # each sentence's first position, in its START context: the rows of its T states
    totals = start + beta[offsets, np.arange(B)].take(state_row[-T:], axis=1)
    best = np.maximum.reduce(totals, axis=1, keepdims=True)
    best -= TIE_TOL
    first = (totals >= best).argmax(axis=1).tolist()
    scores = [row[t] for row, t in zip(totals.tolist(), first)]
    paths = [[t] for t in first]
    states, state_row, first_best = len(state_row), state_row.tolist(), bp.item
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
    # cells per position and sentence: beta and one backpointer per
    # transition row (the first order's rows are its T states)
    width = 2 * end.size
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
        # beta and the transitions of each pair state, from those of its row
        rows, _, state_row = trans
        trans = rows[state_row].reshape(-1, T, T)
        beta = beta.take(state_row, axis=1).reshape(n, -1, T)
    fwd = np.full(beta.shape, -np.inf)
    fwd[0].reshape(-1, T)[-1] = start       # the START context
    for i in range(1, n):
        # fwd[i, (b, c)] = max over a of fwd[i-1, (a, b)] + emit[i-1, b] + trans[(a, b), c]
        fwd[i][:T] = np.max((fwd[i - 1] + emit[i - 1])[..., None] + trans, axis=0)
    return path, score, (fwd + beta).reshape(n, -1, T).max(axis=1)
