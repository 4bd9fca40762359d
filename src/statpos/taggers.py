"""The four decoding methods and their shared scoring machinery.

Each method maximizes an explicit sequence objective in natural log space.
The scalar p_* functions of the counts module are the reference for the
paper's equations.  The log-probability tables that decoding reads are filled
from them once per (model, smoothing) and kept with the model, each part on
first use.  tag_sentence and decode_with_trace share one path: gather the
sentence's rows, then take the first maximum of each row (unigram) or run
the order's Viterbi kernel (bigram, hmm, trigram).  score_sequence and
brute_force_decode recompute the objective from the p_* functions and serve
as the independent oracle in the test suite.  Ties are always broken in
favor of the lexicographically smallest tag tuple.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .counts import (
    SmoothingConfig,
    UNIFORM_OPEN_CLASS,
    p_bigram_transition,
    p_tag_given_word,
    p_trigram_transition,
    p_word_given_tag,
)
from .errors import EmptySentence, InstanceTooLarge, InvalidConfig, LengthMismatch, UnknownTag
from .tagset import END, START

METHODS = ("unigram", "bigram", "trigram", "hmm")

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


def _unknown_lexical_prob(model, smoothing, tag):
    """Lexical distribution the unigram method uses for out-of-vocabulary
    words; its argmax is the policy's tag choice."""
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


def _unigram_lexical_prob(model, smoothing, word, tag):
    if word in model.vocabulary:
        return p_tag_given_word(model, word, tag)
    return _unknown_lexical_prob(model, smoothing, tag)


# --- log-probability tables for the kernels ---------------------------------

def transition_tables(model, smoothing):
    """First-order tables: start (T,), trans (T,T), end (T,) in log space,
    indexed by lexicographic tag order."""
    labels = model.tagset.sorted_labels()
    T = len(labels)
    start = np.empty(T)
    end = np.empty(T)
    trans = np.empty((T, T))
    for j, t in enumerate(labels):
        start[j] = _log(p_bigram_transition(model, START, t, smoothing))
        end[j] = _log(p_bigram_transition(model, t, END, smoothing))
        for k, u in enumerate(labels):
            trans[j, k] = _log(p_bigram_transition(model, t, u, smoothing))
    return labels, start, trans, end


def trigram_tables(model, smoothing):
    """Second-order tables: start2 (T,), tri (T+1,T,T) with row T holding the
    START context, tri_end (T+1,T)."""
    labels = model.tagset.sorted_labels()
    T = len(labels)
    start2 = np.empty(T)
    tri = np.empty((T + 1, T, T))
    tri_end = np.empty((T + 1, T))
    for j, b in enumerate(labels):
        start2[j] = _log(p_trigram_transition(model, START, START, b, smoothing))
    for i, a in enumerate(labels + [START]):
        for j, b in enumerate(labels):
            tri_end[i, j] = _log(p_trigram_transition(model, a, b, END, smoothing))
            for k, c in enumerate(labels):
                tri[i, j, k] = _log(p_trigram_transition(model, a, b, c, smoothing))
    return labels, start2, tri, tri_end


# --- the tables of one (model, smoothing) and the one decoding path ---------

class _Tables:
    """The tables of one (model, smoothing), each part built on first use by
    the reference functions above: the transition tables of one order, and
    per word one P(tag | word) row and one log-emission row, with one of each
    shared by every unknown word.  The model holds these in `_tables`; they
    hold no reference back to it, so they are freed with the model."""

    def __init__(self, model, smoothing):
        self.smoothing = smoothing
        self.labels = model.tagset.sorted_labels()
        self.lexical = {}   # word, or None for unknown words -> P(tag | word) list
        self.emit = {}      # word, or None for unknown words -> log P(word | tag) row
        self.first = self.second = None

    def rows(self, model, sentence, lexical):
        """The sentence's P(tag | word) rows (lexical) or log-emission rows."""
        rows = []
        cache = self.lexical if lexical else self.emit
        for word in sentence:
            key = word if word in model.vocabulary else None
            row = cache.get(key)
            if row is None:
                if lexical:
                    row = [_unigram_lexical_prob(model, self.smoothing, word, t)
                           for t in self.labels]
                else:
                    row = np.array([_log(p_word_given_tag(model, word, t, self.smoothing))
                                    for t in self.labels])
                cache[key] = row
            rows.append(row)
        return rows

    def transitions(self, model, method):
        """(start, trans, end), with doubled interior transitions for hmm, or
        (start2, tri, tri_end) for trigram."""
        if method == "trigram":
            if self.second is None:
                self.second = trigram_tables(model, self.smoothing)[1:]
            return self.second
        if self.first is None:
            self.first = transition_tables(model, self.smoothing)[1:]
        start, trans, end = self.first
        return (start, 2.0 * trans, end) if method == "hmm" else self.first


def _decode(sentence, model, config, traced):
    """The tagged sentence and, when traced, its DecodeTrace."""
    if not sentence:
        raise EmptySentence()
    tables = model._tables.get(config.smoothing)
    if tables is None:
        tables = model._tables[config.smoothing] = _Tables(model, config.smoothing)
    if config.method == "unigram":
        rows = tables.rows(model, sentence, lexical=True)
        # the first maximum of the probability, not of its log: math.log can
        # map two distinct tiny probabilities to one double
        path = [row.index(max(row)) for row in rows]
        if traced:
            # positions are independent: pin tag t at i, the optimum elsewhere
            logs = np.array([[_log(p) for p in row] for row in rows])
            best = logs.max(axis=1)
            score = sum(best.tolist())
            margins = logs + (score - best)[:, None]
    else:
        order = "trigram" if config.method == "trigram" else "bigram"
        args = (np.array(tables.rows(model, sentence, lexical=False)),
                *tables.transitions(model, config.method))
        if traced:
            path, score, margins = kernels.max_marginals(*args)
        else:
            path, _ = getattr(kernels, f"viterbi_{order}")(*args)
    tagged = [(w, tables.labels[j]) for w, j in zip(sentence, path)]
    if not traced:
        return tagged, None
    positions = [dict(zip(tables.labels, row)) for row in margins.tolist()]
    return tagged, DecodeTrace(positions, float(score))


def tag_sentence(sentence, model, config):
    """Tag a list of words with config.method; returns (word, tag) pairs."""
    return _decode(sentence, model, config, traced=False)[0]


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
    for t in tags:
        if t not in model.tagset:
            raise UnknownTag(t)
    smoothing = config.smoothing
    if config.method == "unigram":
        return sum(_log(_unigram_lexical_prob(model, smoothing, w, t))
                   for w, t in zip(sentence, tags))

    emit = sum(_log(p_word_given_tag(model, w, t, smoothing))
               for w, t in zip(sentence, tags))
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
