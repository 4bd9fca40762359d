"""The four decoding methods and their shared scoring machinery.

Each method maximizes an explicit sequence objective in natural log space.
The scalar p_* functions of the counts module are the reference for the
paper's equations.  Decoding reads one dict of tables per (model, smoothing),
kept with the model and filled on first use: per method, the tables its
kernel reads (the transitions of both orders from one numpy computation over
count arrays, equal to the p_* values bit for bit; for the trigram only its
distinct rows; for hmm the doubled interior, built once), and one float64
row per row kind and word, shared by every unknown word.  tag_sentence and
decode_with_trace share one path: stack the sentence's rows, then take the
first maximum of each row (unigram) or run the order's Viterbi kernel
(bigram, hmm, trigram).  tag_corpus returns what tag_sentence returns for
each sentence of a list; for the Viterbi methods it lays the sentences' rows
out longest first and right-aligned, in batches of at most BATCH_CELLS
padded cells, and runs the same kernel once per batch.  score_sequence and
brute_force_decode recompute the objective from the p_* functions and serve
as the independent oracle in the test suite.  Ties are always broken in favor
of the lexicographically smallest tag tuple.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .counts import (
    METHODS,
    SmoothingConfig,
    UNIFORM_OPEN_CLASS,
    check_unknown_policy,
    p_bigram_transition,
    p_tag_given_word,
    p_trigram_transition,
    p_word_given_tag,
)
from .errors import EmptySentence, InstanceTooLarge, InvalidConfig, LengthMismatch, UnknownTag
from .tagset import END, START

NEG_INF = float("-inf")

# Most padded cells of beta and the backpointers that one tag_corpus batch
# holds (8 MB of float64).
BATCH_CELLS = 1 << 20


@dataclass(frozen=True)
class TaggerConfig:
    method: str = "hmm"
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfig(f"unknown method {self.method!r}")


@dataclass
class DecodeTrace:
    """Per-position candidate log-scores plus the chosen path's score.

    positions[i][tag] is the best total sequence score achievable with
    position i fixed to that tag; its maximum equals path_score.
    """

    positions: list
    path_score: float


def _log(p):
    return math.log(p) if p > 0 else NEG_INF


def _unigram_lexical_prob(model, smoothing, word, tag):
    """P(tag | word), or for an out-of-vocabulary word the distribution whose
    argmax is the unknown-word policy's tag choice."""
    if word in model.vocabulary:
        return p_tag_given_word(model, word, tag)
    alpha = smoothing.alpha
    if smoothing.unknown_policy == UNIFORM_OPEN_CLASS:
        denom = (sum(model.tag_count.get(t, 0) for t in smoothing.open_class_tags)
                 + alpha * len(model.tagset))
        if denom <= 0:
            return 0.0
        if tag in smoothing.open_class_tags:
            return (model.tag_count.get(tag, 0) + alpha) / denom
        return alpha / denom
    if tag == smoothing.unknown_policy:
        return 1.0
    return alpha / (1.0 + alpha * len(model.tagset))


def _log_emission(model, smoothing, word, tag):
    return _log(p_word_given_tag(model, word, tag, smoothing))


# --- log-probability tables for the kernels ---------------------------------

def _transition_probs(model, smoothing, second_order):
    """The sorted labels and the transition probabilities indexed by labels +
    [START, END]: the smoothed bigram P[prev, tag], or for the second order
    the interpolated trigram P[t2, t1, tag].  Computed from count arrays with
    the operations of p_bigram_transition and p_trigram_transition in their
    order, so each entry equals theirs bit for bit."""
    labels = model.tagset.sorted_labels()
    T = len(labels)
    index = {t: i for i, t in enumerate(labels + [START, END])}
    alpha = smoothing.alpha
    unigram = np.zeros(T + 2)
    for tag, n in model.tag_count.items():
        unigram[index[tag]] = n
    bigram = np.zeros((T + 2, T + 2))
    for (a, b), n in model.tag_bigram_count.items():
        bigram[index[a], index[b]] = n
    # the divisions by a zero denominator are discarded by the np.where
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = (unigram + alpha * (len(model.tagset) + 1))[:, None]
        p2 = np.where(denom > 0, (bigram + alpha) / denom, 0.0)
        if not second_order:
            return labels, p2
        trigram = np.zeros((T + 2,) * 3)
        for (a, b, c), n in model.tag_trigram_count.items():
            trigram[index[a], index[b], index[c]] = n
        # the (START, START) context never occurs as a bigram; its natural
        # count is one per sentence, as in _raw_trigram_ratio
        context = bigram.copy()
        context[T, T] = unigram[T]
        context = context[..., None]
        p3 = np.where(context > 0, trigram / context, 0.0)
    p1_denom = sum(model.tag_count.values()) + alpha * (len(model.tagset) + 2)
    p1 = (unigram + alpha) / p1_denom if p1_denom > 0 else np.zeros(T + 2)
    return labels, smoothing.lambda3 * p3 + smoothing.lambda2 * p2 + smoothing.lambda1 * p1


def _log_table(p):
    # math.log, not np.log, which differs from it in the last bit on some
    # inputs; taken once per distinct value, since many cells repeat
    values, inverse = np.unique(p, return_inverse=True)
    return np.array([_log(x) for x in values.tolist()])[inverse].reshape(p.shape)


def transition_tables(model, smoothing):
    """First-order tables: start (T,), trans (T,T), end (T,) in log space,
    indexed by lexicographic tag order."""
    labels, p2 = _transition_probs(model, smoothing, second_order=False)
    T = len(labels)
    return labels, _log_table(p2[T, :T]), _log_table(p2[:T, :T]), _log_table(p2[:T, T + 1])


def trigram_tables(model, smoothing):
    """Second-order tables: start2 (T,), the transition rows, and tri_end
    (T+1,T), whose row T holds the START context.  The pair state (a, b), a
    = T for START, is s = a * T + b, and its transitions to the next tag are
    rows[state_row[s]] (T,), a row whose current tag ctx[state_row[s]] is b.
    A context that never occurs has a raw trigram ratio of exactly 0.0, so
    its row is the backoff row of b, shared by all such contexts: K = T
    backoff rows plus one row per context that occurs."""
    labels, p = _transition_probs(model, smoothing, second_order=True)
    T = len(labels)
    index = {t: i for i, t in enumerate(labels + [START])}
    seen = np.array(sorted(index[a] * T + index[b]
                           for (a, b), n in model.tag_bigram_count.items() if n and b != END),
                    dtype=np.intp)
    # no bigram leaves END, so the END context p[T + 1] holds the backoff rows
    rows = np.concatenate([p[T + 1, :T, :T], p[:T + 1, :T, :T].reshape(-1, T)[seen]])
    ctx = np.concatenate([np.arange(T), seen % T])
    state_row = np.tile(np.arange(T), T + 1)
    state_row[seen] = T + np.arange(len(seen))
    return (labels, _log_table(p[T, T, :T]), (_log_table(rows), ctx, state_row),
            _log_table(p[:T + 1, :T, T + 1]))


# --- the tables of one (model, smoothing) and the one decoding path ---------

def _rows(model, smoothing, tables, sentence, prob):
    """The sentence's rows of prob over the labels, stacked; tables[prob]
    keeps each word's row, under None for every unknown word."""
    labels = tables["labels"]
    cache = tables.setdefault(prob, {})
    rows = []
    for word in sentence:
        key = word if word in model.vocabulary else None
        row = cache.get(key)
        if row is None:
            row = cache[key] = np.array([prob(model, smoothing, word, t) for t in labels])
        rows.append(row)
    return np.concatenate(rows).reshape(len(rows), len(labels))


def _tables(model, smoothing):
    """The table cache of (model, smoothing)."""
    # the tables hold no reference to the model, so they are freed with it
    tables = model._tables.get(smoothing)
    if tables is None:
        check_unknown_policy(smoothing.unknown_policy, model.tagset)
        tables = model._tables[smoothing] = {"labels": model.tagset.sorted_labels()}
    return tables


def _kernel_tables(model, smoothing, tables, method):
    """(start, trans, end) of a Viterbi method, built on first use."""
    if method not in tables:
        if method == "trigram":
            tables[method] = trigram_tables(model, smoothing)[1:]
        else:
            start, trans, end = tables["bigram"] = transition_tables(model, smoothing)[1:]
            tables["hmm"] = start, 2.0 * trans, end
    return tables[method]


def _decode(sentence, model, config, traced):
    """The tagged sentence and, when traced, its DecodeTrace."""
    if not sentence:
        raise EmptySentence()
    smoothing, method = config.smoothing, config.method
    tables = _tables(model, smoothing)
    labels = tables["labels"]
    if method == "unigram":
        probs = _rows(model, smoothing, tables, sentence, _unigram_lexical_prob)
        # the first maximum of the probability, not of its log, which can tie
        # two distinct tiny ones; if a word is impossible under every tag,
        # all sequences tie at -inf and the smallest, all zeros, wins
        possible = probs.any(axis=1).all()
        path = probs.argmax(axis=1).tolist() if possible else [0] * len(sentence)
        if traced:
            # positions are independent: pin tag t at i, the optimum elsewhere
            logs = _log_table(probs)
            best = logs.max(axis=1)
            score = sum(best.tolist())
            margins = logs + (score - best)[:, None] if possible else np.full_like(logs, NEG_INF)
    else:
        args = (_rows(model, smoothing, tables, sentence, _log_emission),
                *_kernel_tables(model, smoothing, tables, method))
        if traced:
            path, score, margins = kernels.max_marginals(*args)
        else:
            order = "trigram" if method == "trigram" else "bigram"
            path, _ = getattr(kernels, f"viterbi_{order}")(*args)
    tagged = [(w, labels[j]) for w, j in zip(sentence, path)]
    if not traced:
        return tagged, None
    positions = [dict(zip(labels, row)) for row in margins.tolist()]
    return tagged, DecodeTrace(positions, float(score))


def tag_sentence(sentence, model, config):
    """Tag a list of words with config.method; returns (word, tag) pairs."""
    return _decode(sentence, model, config, traced=False)[0]


def tag_corpus(sentences, model, config):
    """Tag a list of sentences; equal to [tag_sentence(s, model, config) for
    s in sentences], tie-breaks included.  The Viterbi methods decode the
    sentences longest first, in batches of at most BATCH_CELLS padded cells,
    one kernel call per batch."""
    if not all(sentences):
        raise EmptySentence()
    if config.method == "unigram":
        return [tag_sentence(s, model, config) for s in sentences]
    smoothing = config.smoothing
    tables = _tables(model, smoothing)
    labels = tables["labels"]
    start, trans, end = _kernel_tables(model, smoothing, tables, config.method)
    T = len(labels)
    # padded cells per position and sentence: beta and the backpointers
    width = end.size + (len(trans[1]) if end.ndim == 2 else T)
    order = sorted(range(len(sentences)), key=lambda j: -len(sentences[j]))
    tagged = [None] * len(sentences)
    lo = 0
    while lo < len(order):
        n = len(sentences[order[lo]])
        batch = order[lo:lo + max(1, BATCH_CELLS // (n * width))]
        lo += len(batch)
        # right-aligned at position n - 1, position-major
        emit = np.empty((n, len(batch), T))
        for b, j in enumerate(batch):
            emit[n - len(sentences[j]):, b] = _rows(model, smoothing, tables, sentences[j],
                                                   _log_emission)
        paths, _ = kernels.viterbi(emit, start, trans, end, [len(sentences[j]) for j in batch])
        for j, path in zip(batch, paths):
            tagged[j] = [(w, labels[t]) for w, t in zip(sentences[j], path)]
    return tagged


def decode_with_trace(sentence, model, config):
    """Decode and report, per position, the best total score achievable with
    that position pinned to each candidate tag (a DecodeTrace)."""
    return _decode(sentence, model, config, traced=True)


# --- scoring and the enumeration oracle --------------------------------------

def score_sequence(sentence, tags, model, config):
    """Log-score of a tag sequence under the configured method's objective;
    exactly what the matching decoder maximizes."""
    if len(tags) != len(sentence):
        raise LengthMismatch()
    check_unknown_policy(config.smoothing.unknown_policy, model.tagset)
    for t in tags:
        if t not in model.tagset:
            raise UnknownTag(t)
    smoothing = config.smoothing
    if config.method == "unigram":
        return sum(_log(_unigram_lexical_prob(model, smoothing, w, t))
                   for w, t in zip(sentence, tags))

    emit = sum(_log_emission(model, smoothing, w, t) for w, t in zip(sentence, tags))
    if config.method == "bigram":
        prev = START
        score = emit
        for t in tags:
            score += _log(p_bigram_transition(model, prev, t, smoothing))
            prev = t
        score += _log(p_bigram_transition(model, prev, END, smoothing))
        return score
    if config.method == "trigram":
        ctx = (START, START)
        score = emit
        for t in tags:
            score += _log(p_trigram_transition(model, ctx[0], ctx[1], t, smoothing))
            ctx = (ctx[1], t)
        score += _log(p_trigram_transition(model, ctx[0], ctx[1], END, smoothing))
        return score
    # hmm: each position sees both its left and right transition
    padded = [START] + list(tags) + [END]
    score = emit
    for i in range(1, len(padded) - 1):
        score += _log(p_bigram_transition(model, padded[i - 1], padded[i], smoothing))
        score += _log(p_bigram_transition(model, padded[i], padded[i + 1], smoothing))
    return score


def brute_force_decode(sentence, model, config):
    """Enumerate all |T|^n sequences; oracle for the dynamic programs."""
    if not sentence:
        raise EmptySentence()
    labels = model.tagset.sorted_labels()
    if len(sentence) > 8 or len(labels) > 8:
        raise InstanceTooLarge(
            f"{len(sentence)} words x {len(labels)} tags exceeds the 8x8 guard")
    best_tags = None
    best_score = NEG_INF
    for tags in itertools.product(labels, repeat=len(sentence)):
        s = score_sequence(sentence, tags, model, config)
        if best_tags is None or s > best_score + kernels.TIE_TOL:
            best_score = s
            best_tags = tags
        elif s > best_score:
            # tie at rounding-noise level; keep the lexicographically
            # earlier sequence but track the larger score
            best_score = s
    return [(w, t) for w, t in zip(sentence, best_tags)]
