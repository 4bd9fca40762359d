"""The four decoding methods and their shared scoring machinery.

Each method maximizes an explicit sequence objective in natural log space.
The scalar p_* functions of the counts module are the reference for the
paper's equations.  Decoding reads one dict of tables per (model, smoothing),
kept with the model and filled on first use: per method, the tables its
kernel reads (the transitions of both orders from one numpy computation over
count arrays, equal to the p_* values bit for bit; for the trigram only its
distinct rows, each with its END entry; for hmm the doubled interior, built
once), and per row kind one float64 matrix with the row index of each word
filled so far.  The rows of the known words a call lacks come from one numpy
computation over their count matrix, again equal to the p_* values bit for
bit, and go to the next free rows; one row from the p_* functions, indexed
under None, serves every unknown word.  Every method tags through
tag_corpus: take the rows of all the words of its sentences from the matrix
at once, then take the first maximum of each row (unigram) or pass them to
one call of the order's Viterbi kernel (bigram, hmm, trigram), which lays
the sentences out in batches itself.  tag_sentence is tag_corpus's batch
of one.  decode_with_trace adds a trace: the unigram's margins from the
rows, next to tag_sentence's tags, and the Viterbi methods' path and margins
from the kernel's max_marginals, which takes the path of the same backward
pass.  score_sequence and brute_force_decode recompute the objective from
the p_* functions and serve as the independent oracle in the test suite.
Ties are always broken in favor of the lexicographically smallest tag tuple.
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
    """Second-order tables: start2 (T,), the transition rows, and end (K,).
    The pair state (a, b), a = T for START, is s = a * T + b, and its
    transitions to the next tag are rows[state_row[s]] (T,), a row whose
    current tag ctx[state_row[s]] is b, and to END end[state_row[s]].  A
    context that never occurs has a raw trigram ratio of exactly 0.0, END
    included, so its row and end are the backoff ones of b, shared by all
    such contexts: K = T backoff rows plus one row per context that occurs."""
    labels, p = _transition_probs(model, smoothing, second_order=True)
    T = len(labels)
    index = {t: i for i, t in enumerate(labels + [START])}
    seen = np.array(sorted(index[a] * T + index[b]
                           for (a, b), n in model.tag_bigram_count.items() if n and b != END),
                    dtype=np.intp)
    # no bigram leaves END, so the END context p[T + 1] holds the backoff
    # rows; each row keeps its entry for END, p[..., T + 1]
    rows = np.concatenate([p[T + 1, :T], p[:T + 1, :T].reshape(-1, T + 2)[seen]])
    ctx = np.concatenate([np.arange(T), seen % T])
    state_row = np.tile(np.arange(T), T + 1)
    state_row[seen] = T + np.arange(len(seen))
    return (labels, _log_table(p[T, T, :T]), (_log_table(rows[:, :T]), ctx, state_row),
            _log_table(rows[:, T + 1]))


# --- the tables of one (model, smoothing) and the one decoding path ---------

def _emission_block(model, smoothing, labels, words):
    """log P(word | tag) of known words, (W,T), from their count matrix with
    the operations of p_word_given_tag in its order: bit for bit the values
    of _log_emission."""
    alpha = smoothing.alpha
    V = len(model.vocabulary)
    denom = np.array([model.tag_count.get(t, 0) + alpha * V for t in labels])
    counts = _count_matrix(model, labels, words)
    # the divisions by a zero denominator are discarded by the np.where
    with np.errstate(divide="ignore", invalid="ignore"):
        return _log_table(np.where(denom == 0, 0.0, (counts + alpha) / denom))


def _lexical_block(model, smoothing, labels, words):
    """P(tag | word) of known words, (W,T), with the operations of
    p_tag_given_word: bit for bit the values of _unigram_lexical_prob."""
    totals = np.array([model.word_count[w] for w in words], dtype=float)
    return _count_matrix(model, labels, words) / totals[:, None]


def _count_matrix(model, labels, words):
    # counts below 2**53 convert to float64 exactly, so every operation on
    # them rounds as the scalar one on the Python ints does
    cells = map(model.word_tag_count.get, itertools.product(words, labels), itertools.repeat(0))
    return np.fromiter(cells, float, len(words) * len(labels)).reshape(len(words), len(labels))


# row kind (its scalar reference) -> the rows of known words from count arrays
_BLOCKS = {_log_emission: _emission_block, _unigram_lexical_prob: _lexical_block}


def _fill_rows(model, smoothing, tables, prob, words):
    """Fill the rows of prob that words need and tables[prob] lacks at the
    next free rows of its matrix, which at least doubles when full: those of
    the known words from one count-array step, and the one row of every
    unknown word, under None, from prob itself."""
    labels, vocabulary = tables["labels"], model.vocabulary
    matrix, index = tables.get(prob) or (np.empty((0, len(labels))), {})
    known = [w for w in dict.fromkeys(words) if w in vocabulary and w not in index]
    unknown = [] if None in index else [w for w in words if w not in vocabulary][:1]
    start = len(index)
    stop = start + len(known) + len(unknown)
    if stop > len(matrix):
        grown = np.empty((max(stop, 2 * len(matrix)), len(labels)))
        grown[:start] = matrix[:start]
        matrix = grown
    tables[prob] = matrix, index
    if known:
        matrix[start:start + len(known)] = _BLOCKS[prob](model, smoothing, labels, known)
        index.update(zip(known, itertools.count(start)))
    if unknown:
        matrix[stop - 1] = [prob(model, smoothing, unknown[0], t) for t in labels]
        index[None] = stop - 1


def _rows(model, smoothing, tables, words, prob):
    """The words' rows of prob over the labels, (W,T), in one take from
    tables[prob]: a float64 matrix and the row of each word filled so far,
    with the one row of every unknown word under None.  The rows the words
    lack are filled first, in one step."""
    vocabulary = model.vocabulary
    try:
        matrix, index = tables[prob]
        return matrix.take([index[w if w in vocabulary else None] for w in words], axis=0)
    except KeyError:
        _fill_rows(model, smoothing, tables, prob, words)
        return _rows(model, smoothing, tables, words, prob)


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


def tag_sentence(sentence, model, config):
    """Tag a list of words with config.method; returns (word, tag) pairs."""
    return tag_corpus([sentence], model, config)[0]


def tag_corpus(sentences, model, config):
    """Tag a list of sentences; returns each one's (word, tag) pairs, which
    do not depend on the other sentences of the call.  The unigram takes the
    first maximum of every word's row at once; the Viterbi methods pass the
    rows of all the words to one call of the order's kernel."""
    if not all(sentences):
        raise EmptySentence()
    if not sentences:
        return []
    smoothing, method = config.smoothing, config.method
    tables = _tables(model, smoothing)
    labels = tables["labels"]
    words = sentences[0] if len(sentences) == 1 else [w for s in sentences for w in s]
    if method == "unigram":
        probs = _rows(model, smoothing, tables, words, _unigram_lexical_prob)
        # the first maximum of the probability, not of its log, which can tie
        # two distinct tiny ones
        tags = probs.argmax(axis=1)
        possible = probs.any(axis=1)
        if not possible.all():
            # a word impossible under every tag makes all sequences of its
            # sentence tie at -inf, and the smallest, all zeros, wins
            lengths = [len(s) for s in sentences]
            possible = np.logical_and.reduceat(possible, np.cumsum(lengths) - lengths)
            tags[~np.repeat(possible, lengths)] = 0
        tags = tags.tolist()
    else:
        order = "trigram" if method == "trigram" else "bigram"
        paths, _ = getattr(kernels, f"viterbi_{order}")(
            _rows(model, smoothing, tables, words, _log_emission),
            *_kernel_tables(model, smoothing, tables, method), [len(s) for s in sentences])
        tags = itertools.chain.from_iterable(paths)
    # each sentence's zip stops at its last word, before it takes a tag more
    tags = iter(tags)
    return [[(w, labels[t]) for w, t in zip(s, tags)] for s in sentences]


def decode_with_trace(sentence, model, config):
    """Decode and report, per position, the best total score achievable with
    that position pinned to each candidate tag (a DecodeTrace)."""
    if not sentence:
        raise EmptySentence()
    smoothing, method = config.smoothing, config.method
    tables = _tables(model, smoothing)
    labels = tables["labels"]
    if method == "unigram":
        tagged = tag_sentence(sentence, model, config)
        # positions are independent: pin tag t at i, the optimum elsewhere
        logs = _log_table(_rows(model, smoothing, tables, sentence, _unigram_lexical_prob))
        best = logs.max(axis=1)
        score = sum(best.tolist())
        margins = logs + (score - best)[:, None] if score > NEG_INF else np.full_like(logs, NEG_INF)
    else:
        # the path of the one backward pass that the margins read
        path, score, margins = kernels.max_marginals(
            _rows(model, smoothing, tables, sentence, _log_emission),
            *_kernel_tables(model, smoothing, tables, method))
        tagged = [(w, labels[t]) for w, t in zip(sentence, path)]
    positions = [dict(zip(labels, row)) for row in margins.tolist()]
    return tagged, DecodeTrace(positions, float(score))


# --- scoring and the enumeration oracle --------------------------------------

def score_sequence(sentence, tags, model, config):
    """Log-score of a tag sequence under the configured method's objective;
    exactly what the matching decoder maximizes."""
    if not sentence:
        raise EmptySentence()
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
