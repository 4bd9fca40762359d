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

A batch of B sentences is laid out position-major, emit (n,B,T): sorted
longest first and right-aligned at the shared last position n-1, so sentence
b of lengths[b] words starts at offset n - lengths[b], and the sentences live
at position i are a prefix [:a] of the batch (`_runs`).  One numpy step per
position serves all of them, and no arithmetic runs on the padding before a
sentence starts.  One sentence is the batch of one.

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
sentence scores -inf they all tie, and its path is all zeros.  The first
order takes all backpointers after the backward pass, one whole-array step
per run of positions that share a live prefix, in blocks of BLOCK_CELLS
candidates.  The second order takes them in the backward pass, one per
sentence, row and position from the candidates it already holds, so the
path walk only looks them up.

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
    """beta (n,B,...), set at the live positions only, and, for the second
    order, the backpointers bp (n,B,K): bp[i, b, k] is the first best tag at
    position i of sentence b after a state whose row is k."""
    n, B, T = emit.shape
    beta = np.empty((n, B) + end.shape)
    if end.ndim == 1:
        beta[n - 1] = emit[n - 1] + end
        cand = np.empty((B,) + trans.shape)
        for a, steps in _runs(lengths, n):
            # views of the live prefix, so that each step indexes one integer;
            # the max and the sum run over its contiguous 2-D and 1-D forms
            nxt, c, flat = beta[:, :a, None], cand[:a], cand[:a].reshape(-1, T)
            em, out = emit.reshape(n, -1)[:, :a * T], beta.reshape(n, -1)[:, :a * T]
            for i in steps:
                # max over the next tag c of trans[state, c] + beta[i+1, b, c]
                np.add(trans, nxt[i + 1], out=c)
                np.add(em[i], np.maximum.reduce(flat, axis=1), out=out[i])
        return beta, None
    # the emissions broadcast over the state's context
    emit = emit[:, :, None]
    beta[n - 1] = emit[n - 1] + end
    rows, ctx, state_row = trans
    # cand[b, c, k] = rows[k, c] + beta[i+1, b, ctx[k], c]: row k's candidates
    # read the beta row of its current tag, laid out so that the max and the
    # first maximum run down the short axis c, which numpy does faster
    rows = rows.T[None].copy()      # (1,T,K): one sentence's step adds without broadcasting
    gather = ctx * T + np.arange(T)[:, None]
    flat = beta.reshape(n, B, -1)
    cand = np.empty((B,) + rows.shape[1:])
    bp = np.empty((n, B, len(ctx)), dtype=np.intp)
    for a, steps in _runs(lengths, n):
        fl, em, out, bpa, c = flat[:, :a], emit[:, :a], beta[:, :a], bp[:, :a], cand[:a]
        for i in steps:
            np.add(rows, fl[i + 1].take(gather, axis=1), out=c)
            best = np.maximum.reduce(c, axis=1, keepdims=True)
            (c >= best - TIE_TOL).argmax(axis=1, out=bpa[i + 1])
            np.add(em[i], best.take(state_row, axis=2).reshape(a, -1, T), out=out[i])
    return beta, bp


def _path(start, trans, beta, bp, lengths):
    """The best path and its score of every sentence of the batch."""
    n, B, T = beta.shape[0], beta.shape[1], beta.shape[-1]
    offsets = [n - m for m in lengths]
    # each sentence's first position, in its START context
    totals = start + beta.reshape(n * B, -1)[[o * B + b for b, o in enumerate(offsets)], -T:]
    best = np.maximum.reduce(totals, axis=1, keepdims=True)
    best -= TIE_TOL
    first = (totals >= best).argmax(axis=1).tolist()
    scores = [row[t] for row, t in zip(totals.tolist(), first)]
    paths = [[t] for t in first]
    if bp is None:
        # rows[i][b][s] is the first best tag at position i of sentence b
        # after tag s, for the sentences live at i - 1
        rows = [None] * n
        for a, steps in _runs(lengths, n):
            lo, hi = steps[-1] + 1, steps[0] + 2
            step = max(1, BLOCK_CELLS // (a * T * T))
            for p in range(lo, hi, step):
                q = min(p + step, hi)
                cand = trans + beta[p:q, :a, None]
                best = np.maximum.reduce(cand, axis=3, keepdims=True)
                best -= TIE_TOL
                rows[p:q] = (cand >= best).argmax(axis=3).tolist()
        for b, (path, o) in enumerate(zip(paths, offsets)):
            for row in rows[o + 1:]:
                path.append(row[b][path[-1]])
    else:
        # the pair state s = previous tag * T + current tag, previous tag T for START
        state_row, first_best = trans[2].tolist(), bp.item
        for b, (path, o) in enumerate(zip(paths, offsets)):
            s = T * T + path[0]
            for i in range(o + 1, n):
                t = first_best(i, b, state_row[s])
                path.append(t)
                s = (s % T) * T + t
    for b, score in enumerate(scores):
        if score == -np.inf:
            # every path scores -inf, so all tie and the smallest is all zeros
            paths[b] = [0] * lengths[b]
    return paths, scores


def viterbi(emit, start, trans, end, lengths=None):
    """Best path and its score of one sentence, emit (n,T).  Given the
    `lengths` of a batch emit (n,B,T), laid out as above, the lists of the B
    best paths and of their scores."""
    if lengths is None:
        paths, scores = _path(start, trans, *_backward(emit[:, None], trans, end, [len(emit)]),
                              [len(emit)])
        return paths[0], scores[0]
    return _path(start, trans, *_backward(emit, trans, end, lengths), lengths)


# The benchmark times the kernel of one sentence under one name per model
# order, so both names stay, bound to the one viterbi.
viterbi_bigram = viterbi_trigram = viterbi


def max_marginals(emit, start, trans, end):
    """Best path of one sentence, emit (n,T), its score, and margins (n,T):
    margins[i, t] is the best total score with position i pinned to tag t."""
    n, T = emit.shape
    beta, bp = _backward(emit[:, None], trans, end, [n])
    (path,), (score,) = _path(start, trans, beta, bp, [n])
    beta = beta[:, 0]
    if bp is not None:
        rows, _, state_row = trans
        trans = rows[state_row].reshape(-1, T, T)
    fwd = np.full(beta.shape, -np.inf)
    fwd[0].reshape(-1, T)[-1] = start       # the START context
    for i in range(1, n):
        # fwd[i, (b, c)] = max over a of fwd[i-1, (a, b)] + emit[i-1, b] + trans[(a, b), c]
        fwd[i][:T] = np.max((fwd[i - 1] + emit[i - 1])[..., None] + trans, axis=0)
    return path, score, (fwd + beta).reshape(n, -1, T).max(axis=1)
