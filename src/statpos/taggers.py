"""The four decoding methods and their shared scoring machinery.

Every decoder maximizes an explicit per-method sequence objective in natural
log space.  The bigram, trigram and HMM decoders are exact Viterbi dynamic
programs running on the kernels module; brute_force_decode enumerates every
tag sequence and serves as the independent oracle in the test suite.  Ties
are always broken in favor of the lexicographically smallest tag tuple.
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
from .errors import EmptySentence, InstanceTooLarge, LengthMismatch, UnknownTag
from .tagset import END, START

METHODS = ("unigram", "bigram", "trigram", "hmm")

NEG_INF = float("-inf")


@dataclass(frozen=True)
class TaggerConfig:
    method: str = "hmm"
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


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
        tri_end[T, j] = _log(p_trigram_transition(model, START, b, END, smoothing))
        for k, c in enumerate(labels):
            tri[T, j, k] = _log(p_trigram_transition(model, START, b, c, smoothing))
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            tri_end[i, j] = _log(p_trigram_transition(model, a, b, END, smoothing))
            for k, c in enumerate(labels):
                tri[i, j, k] = _log(p_trigram_transition(model, a, b, c, smoothing))
    return labels, start2, tri, tri_end


def emission_table(model, smoothing, words, labels):
    emit = np.empty((len(words), len(labels)))
    for i, w in enumerate(words):
        for j, t in enumerate(labels):
            emit[i, j] = _log(p_word_given_tag(model, w, t, smoothing))
    return emit


# --- decoders ----------------------------------------------------------------

def tag_unigram(sentence, model, config):
    """Most-likely tag per word, context-free; unknown words go to the
    unknown-word policy's tag."""
    if not sentence:
        raise EmptySentence()
    smoothing = config.smoothing
    out = []
    for word in sentence:
        best_tag = None
        best_p = NEG_INF
        for t in model.tagset.sorted_labels():
            p = _unigram_lexical_prob(model, smoothing, word, t)
            if p > best_p:
                best_p = p
                best_tag = t
        out.append((word, best_tag))
    return out


def _dp_tables(sentence, model, smoothing, method):
    """Labels and the kernel argument tables of a DP method: first-order
    (emit, start, trans, end), with doubled interior transitions for hmm, or
    second-order (emit, start2, tri, tri_end) for trigram."""
    if method == "trigram":
        labels, start2, tri, tri_end = trigram_tables(model, smoothing)
        emit = emission_table(model, smoothing, sentence, labels)
        return labels, (emit, start2, tri, tri_end)
    labels, start, trans, end = transition_tables(model, smoothing)
    emit = emission_table(model, smoothing, sentence, labels)
    interior = 2.0 * trans if method == "hmm" else trans
    return labels, (emit, start, interior, end)


def _tag_dp(sentence, model, smoothing, method):
    if not sentence:
        raise EmptySentence()
    labels, tables = _dp_tables(sentence, model, smoothing, method)
    kernel = kernels.viterbi_trigram if method == "trigram" else kernels.viterbi_bigram
    path, _ = kernel(*tables)
    return [(w, labels[j]) for w, j in zip(sentence, path)]


def tag_bigram(sentence, model, config):
    return _tag_dp(sentence, model, config.smoothing, "bigram")


def tag_hmm(sentence, model, config):
    """Bidirectional-context objective: each position scores its transition
    from the previous tag and to the next tag, so interior transitions carry
    doubled weight in the equivalent first-order dynamic program."""
    return _tag_dp(sentence, model, config.smoothing, "hmm")


def tag_trigram(sentence, model, config):
    return _tag_dp(sentence, model, config.smoothing, "trigram")


def tag_sentence(sentence, model, config):
    """Dispatch on config.method."""
    fn = {
        "unigram": tag_unigram,
        "bigram": tag_bigram,
        "trigram": tag_trigram,
        "hmm": tag_hmm,
    }[config.method]
    return fn(sentence, model, config)


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


# --- max-marginal traces for the probe CLI -----------------------------------

def decode_with_trace(sentence, model, config):
    """Decode and report, per position, the best total score achievable with
    that position pinned to each candidate tag."""
    if not sentence:
        raise EmptySentence()
    smoothing = config.smoothing

    if config.method == "unigram":
        tagged = tag_unigram(sentence, model, config)
        positions = []
        total = 0.0
        for word in sentence:
            scores = {t: _log(_unigram_lexical_prob(model, smoothing, word, t))
                      for t in model.tagset.sorted_labels()}
            total += max(scores.values())
            positions.append(scores)
        # each position is independent: pin tag t at i, optimum elsewhere
        traced = [{t: total - max(pos.values()) + pos[t] for t in pos}
                  for pos in positions]
        return tagged, DecodeTrace(traced, score_sequence(sentence, [t for _, t in tagged], model, config))

    labels, tables = _dp_tables(sentence, model, smoothing, config.method)
    max_marginals = (kernels.max_marginals_trigram if config.method == "trigram"
                     else kernels.max_marginals_bigram)
    path, path_score, margins = max_marginals(*tables)
    tagged = [(w, labels[j]) for w, j in zip(sentence, path)]
    positions = [{t: float(margins[i, j]) for j, t in enumerate(labels)}
                 for i in range(len(sentence))]
    return tagged, DecodeTrace(positions, float(path_score))
