"""Frequency tables and the probability queries built on them.

All counts are exact integers gathered in one pass over the corpus;
probabilities are computed on demand by the p_* functions.  Sentence boundaries are
padded with START/END sentinels (double START for trigram contexts) so every
transition query is well-defined at the edges.
"""

import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    CorruptSection,
    EmptyCorpus,
    FormatVersionMismatch,
    InvalidConfig,
    IoFailure,
    StatposError,
    UnknownTag,
    UnknownWord,
    text_file,
)
from .tagset import (
    DEFAULT_OPEN_CLASS_TAGS,
    END,
    END_SERIALIZED,
    START,
    START_SERIALIZED,
    Tagset,
)

MODEL_HEADER = "NGRAM-POS-MODEL v1"
MODEL_VERSION = "1"

UNIFORM_OPEN_CLASS = "uniform-open-class"


@dataclass(frozen=True)
class SmoothingConfig:
    """Additive-smoothing constant, trigram interpolation weights and the
    unknown-word policy.

    unknown_policy is either UNIFORM_OPEN_CLASS or a single tag label
    (every unknown word is forced to that tag).
    """

    alpha: float = 0.001
    lambda3: float = 0.6
    lambda2: float = 0.3
    lambda1: float = 0.1
    unknown_policy: str = UNIFORM_OPEN_CLASS
    open_class_tags: frozenset = field(default_factory=lambda: DEFAULT_OPEN_CLASS_TAGS)

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise InvalidConfig(f"alpha must be finite and nonnegative, got {self.alpha}")
        lambdas = (self.lambda3, self.lambda2, self.lambda1)
        if not all(0 <= w < math.inf for w in lambdas):
            raise InvalidConfig(f"interpolation weights must be finite and nonnegative, "
                                f"got {lambdas}")
        if abs(sum(lambdas) - 1.0) > 1e-9:
            raise InvalidConfig(f"interpolation weights must sum to 1, got {sum(lambdas)}")
        object.__setattr__(self, "open_class_tags", frozenset(self.open_class_tags))


class CountsModel:
    """Immutable bundle of frequency tables trained from a tagged corpus."""

    def __init__(self, tagset, word_tag_count, tag_count, tag_bigram_count,
                 tag_trigram_count, total_tokens):
        self.tagset = tagset
        self.word_tag_count = dict(word_tag_count)
        self.tag_count = dict(tag_count)
        self.tag_bigram_count = dict(tag_bigram_count)
        self.tag_trigram_count = dict(tag_trigram_count)
        self.total_tokens = total_tokens
        self.word_count = Counter()
        for (word, _tag), n in self.word_tag_count.items():
            self.word_count[word] += n
        self.word_count = dict(self.word_count)
        self.vocabulary = self.word_count.keys()
        # SmoothingConfig -> the taggers' tables, derived from these counts
        self._tables = {}

    @property
    def num_sentences(self):
        return self.tag_count.get(START, 0)

    def _check_tag(self, tag, allow_sentinels=True):
        if tag in self.tagset:
            return
        if allow_sentinels and tag in (START, END):
            return
        raise UnknownTag(tag)


def build_counts(corpus, tagset):
    """Accumulate every frequency table from a list of tagged sentences."""
    if not corpus:
        raise EmptyCorpus("no sentences")
    word_tag = Counter()
    tag_count = Counter()
    bigram = Counter()
    trigram = Counter()
    total_tokens = 0
    for sentence in corpus:
        tags = []
        for word, tag in sentence:
            if tag not in tagset:
                raise UnknownTag(tag)
            if word in (START_SERIALIZED, END_SERIALIZED):
                raise StatposError(f"word {word!r} collides with a reserved sentinel spelling")
            word_tag[(word, tag)] += 1
            tags.append(tag)
        total_tokens += len(tags)
        tag_count[START] += 1
        tag_count[END] += 1
        for t in tags:
            tag_count[t] += 1
        padded = [START] + tags + [END]
        for a, b in zip(padded, padded[1:]):
            bigram[(a, b)] += 1
        padded2 = [START, START] + tags + [END]
        for a, b, c in zip(padded2, padded2[1:], padded2[2:]):
            trigram[(a, b, c)] += 1
    return CountsModel(tagset, word_tag, tag_count, bigram, trigram, total_tokens)


def p_tag_given_word(model, word, tag):
    """Unsmoothed maximum-likelihood P(tag | word)."""
    if word not in model.vocabulary:
        raise UnknownWord(word)
    model._check_tag(tag, allow_sentinels=False)
    return model.word_tag_count.get((word, tag), 0) / model.word_count[word]


def p_word_given_tag(model, word, tag, smoothing):
    """Additively smoothed emission P(word | tag); unknown words are routed
    through the unknown-word policy."""
    model._check_tag(tag, allow_sentinels=False)
    alpha = smoothing.alpha
    denom = model.tag_count.get(tag, 0) + alpha * len(model.vocabulary)
    if word in model.vocabulary:
        if denom == 0:
            return 0.0
        return (model.word_tag_count.get((word, tag), 0) + alpha) / denom
    floor = alpha / denom if denom > 0 else 0.0
    if smoothing.unknown_policy == UNIFORM_OPEN_CLASS:
        if tag in smoothing.open_class_tags:
            return 1.0 / len(smoothing.open_class_tags)
        return floor
    return 1.0 if tag == smoothing.unknown_policy else floor


def p_bigram_transition(model, prev_tag, tag, smoothing):
    """Smoothed transition P(tag | prev_tag); END counts as one extra
    successor outcome in the smoothing denominator."""
    model._check_tag(prev_tag)
    model._check_tag(tag)
    alpha = smoothing.alpha
    num = model.tag_bigram_count.get((prev_tag, tag), 0) + alpha
    denom = model.tag_count.get(prev_tag, 0) + alpha * (len(model.tagset) + 1)
    return num / denom if denom > 0 else 0.0


def _raw_trigram_ratio(model, t2, t1, tag):
    # The (START, START) context never occurs as a bigram; its natural count
    # is one per sentence.
    if (t2, t1) == (START, START):
        denom = model.tag_count.get(START, 0)
    else:
        denom = model.tag_bigram_count.get((t2, t1), 0)
    if denom == 0:
        return 0.0
    return model.tag_trigram_count.get((t2, t1, tag), 0) / denom


def p_trigram_transition(model, t2, t1, tag, smoothing):
    """Interpolated P(tag | t2, t1): lambda3 * raw trigram ratio +
    lambda2 * smoothed bigram + lambda1 * smoothed unigram."""
    model._check_tag(t2)
    model._check_tag(t1)
    model._check_tag(tag)
    p3 = _raw_trigram_ratio(model, t2, t1, tag)
    p2 = p_bigram_transition(model, t1, tag, smoothing)
    alpha = smoothing.alpha
    total = sum(model.tag_count.values())
    p1_denom = total + alpha * (len(model.tagset) + 2)
    p1 = (model.tag_count.get(tag, 0) + alpha) / p1_denom if p1_denom > 0 else 0.0
    return smoothing.lambda3 * p3 + smoothing.lambda2 * p2 + smoothing.lambda1 * p1


# --- model file format -------------------------------------------------------
#
# UTF-8 lines.  Header "NGRAM-POS-MODEL v1", then sections [tagset],
# [word_tag], [tag], [bigram], [trigram]; tab-separated records (keys then an
# integer count), each terminated by "count=<records>".  Sentinels are spelled
# <S> and </S>.  Records in every section but [tagset] contain a tab, and tag
# labels never start with "count=", so no record reads as a terminator.

_TERMINATOR = re.compile(r"count=([0-9]+)")
_SENTINEL_OUT = {START: START_SERIALIZED, END: END_SERIALIZED}
_SENTINEL_IN = {v: k for k, v in _SENTINEL_OUT.items()}


def _tag_out(tag):
    return _SENTINEL_OUT.get(tag, tag)


def _tag_in(label):
    return _SENTINEL_IN.get(label, label)


def save_model(model, sink):
    """Write to a text stream, or to a path atomically: a temporary file in
    the same directory is renamed over the target once it is complete."""
    if not isinstance(sink, (str, bytes, os.PathLike)):
        _write_model(model, sink)
        return
    tmp = f"{os.fsdecode(sink)}.{os.getpid()}.tmp"
    try:
        with text_file(tmp, "w") as fh:
            _write_model(model, fh)
        # renamed only once closed, so the target is never a partial file
        try:
            os.replace(tmp, sink)
        except OSError as e:
            raise IoFailure(str(e)) from e
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_model(model, fh):
    fh.write(MODEL_HEADER + "\n")

    def section(name, rows):
        fh.write(f"[{name}]\n")
        n = 0
        for row in rows:
            fh.write("\t".join(row) + "\n")
            n += 1
        fh.write(f"count={n}\n")

    section("tagset", ([t] for t in model.tagset))
    section("word_tag", ((w, t, str(c)) for (w, t), c in sorted(model.word_tag_count.items())))
    section("tag", ((_tag_out(t), str(c)) for t, c in sorted(model.tag_count.items())))
    section("bigram", ((_tag_out(a), _tag_out(b), str(c))
                       for (a, b), c in sorted(model.tag_bigram_count.items())))
    section("trigram", ((_tag_out(a), _tag_out(b), _tag_out(c), str(n))
                        for (a, b, c), n in sorted(model.tag_trigram_count.items())))


def load_model(source):
    with text_file(source) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise CorruptSection("empty model file")
    header = lines[0]
    if not header.startswith("NGRAM-POS-MODEL"):
        raise CorruptSection(f"bad header {header!r}")
    version = header.rsplit("v", 1)[-1]
    if version != MODEL_VERSION:
        raise FormatVersionMismatch(f"unsupported model version {version!r}")

    sections = {}
    i = 1
    while i < len(lines):
        name_line = lines[i]
        if not (name_line.startswith("[") and name_line.endswith("]")):
            raise CorruptSection(f"expected section header, got {name_line!r}")
        name = name_line[1:-1]
        i += 1
        records = []
        while i < len(lines) and not (lines[i].startswith("count=")
                                      and _TERMINATOR.fullmatch(lines[i])):
            records.append(lines[i].split("\t"))
            i += 1
        if i >= len(lines):
            raise CorruptSection(f"section {name!r} missing count terminator")
        declared = int(_TERMINATOR.fullmatch(lines[i]).group(1))
        if declared != len(records):
            raise CorruptSection(
                f"section {name!r} declares {declared} records, found {len(records)}")
        sections[name] = records
        i += 1

    required = ["tagset", "word_tag", "tag", "bigram", "trigram"]
    for name in required:
        if name not in sections:
            raise CorruptSection(f"missing section [{name}]")

    def ints(records, width):
        out = {}
        for rec in records:
            if len(rec) != width or not rec[-1].lstrip("-").isdigit():
                raise CorruptSection(f"bad record {rec!r}")
            count = int(rec[-1])
            if count < 0:
                raise CorruptSection(f"negative count in {rec!r}")
            out[tuple(rec[:-1])] = count
        return out

    tagset = Tagset(rec[0] for rec in sections["tagset"])
    word_tag = {(w, t): c for (w, t), c in ints(sections["word_tag"], 3).items()}
    tag_count = {_tag_in(t): c for (t,), c in ints(sections["tag"], 2).items()}
    bigram = {(_tag_in(a), _tag_in(b)): c
              for (a, b), c in ints(sections["bigram"], 3).items()}
    trigram = {(_tag_in(a), _tag_in(b), _tag_in(c)): n
               for (a, b, c), n in ints(sections["trigram"], 4).items()}
    total_tokens = sum(word_tag.values())
    return CountsModel(tagset, word_tag, tag_count, bigram, trigram, total_tokens)
