"""Frequency tables and the probability queries built on them.

One pass over the corpus counts word/tag pairs and tag trigrams; the other
tables follow from them, and the p_* functions compute probabilities on demand.
Sentence boundaries are padded with START/END sentinels (double START for
trigram contexts) so every transition query is well-defined at the edges.
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
from .tagset import DEFAULT_OPEN_CLASS_TAGS, END, START, Tagset

MODEL_VERSION = "1"
_HEADER_PREFIX = "NGRAM-POS-MODEL v"
MODEL_HEADER = _HEADER_PREFIX + MODEL_VERSION

UNIFORM_OPEN_CLASS = "uniform-open-class"

# The decoding methods of statpos.taggers, named here so that the CLI can
# list them without importing numpy.
METHODS = ("unigram", "bigram", "trigram", "hmm")


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


def check_unknown_policy(policy, tagset):
    """Raise UnknownTag unless the unknown-word policy is UNIFORM_OPEN_CLASS
    or a label of the tagset."""
    if policy != UNIFORM_OPEN_CLASS and policy not in tagset:
        raise UnknownTag(policy)


def _sentinel_out_of_place(context, tag):
    # a padded sentence has no tag after END and no START after a tag
    return END in context or tag == START


def _check_transition(context, tag):
    if _sentinel_out_of_place(context, tag):
        raise StatposError(f"no transition in a padded sentence from {' '.join(context)} "
                           f"to {tag}")


class CountsModel:
    """Immutable bundle of frequency tables trained from a tagged corpus.

    Built from the word/tag and tag-trigram counts; every other table is
    derived from them.  Each bigram of a padded sentence ends one trigram, so
    bigram(b, c) = sum over a of trigram(a, b, c), and START and END count
    once per sentence: the total of the (START, START, .) trigrams."""

    def __init__(self, tagset, word_tag_count, tag_trigram_count):
        if not len(tagset):
            # every decoder picks from at least one tag
            raise CorruptSection("empty tagset")
        self.tagset = tagset
        self.word_tag_count = dict(word_tag_count)
        self.tag_trigram_count = dict(tag_trigram_count)
        word_count, tag_count, bigram = {}, {}, {}
        for (word, tag), n in self.word_tag_count.items():
            word_count[word] = word_count.get(word, 0) + n
            tag_count[tag] = tag_count.get(tag, 0) + n
        for key, n in self.tag_trigram_count.items():
            a, b, c = key
            # START opens a trigram only in the context, second only after a first START
            if _sentinel_out_of_place((a, b), c) or b == START != a:
                raise CorruptSection(f"sentinel out of place in trigram {key}")
            bigram[b, c] = bigram.get((b, c), 0) + n
        # checked once per distinct tag, at most T+2 of them, not per record
        for tag in tag_count:
            self._check_tag(tag, allow_sentinels=False)
        for tag in sorted({a for a, _, _ in self.tag_trigram_count}.union(*bigram)):
            self._check_tag(tag)
        self.total_tokens = sum(tag_count.values())
        sentences = sum(n for (a, b, _), n in self.tag_trigram_count.items()
                        if a == b == START)
        if sentences:
            tag_count[START] = tag_count[END] = sentences
        self.word_count = word_count
        self.vocabulary = word_count.keys()
        self.tag_count = tag_count
        self.tag_bigram_count = bigram
        # SmoothingConfig -> the taggers' tables, derived from these counts
        self._tables = {}

    def _check_tag(self, tag, allow_sentinels=True):
        if tag in self.tagset:
            return
        if allow_sentinels and tag in (START, END):
            return
        raise UnknownTag(tag)


def build_counts(corpus, tagset):
    """Count the word/tag pairs and the padded tag trigrams of a list of
    tagged sentences; CountsModel derives the other tables from them."""
    if not corpus:
        raise EmptyCorpus("empty corpus")
    word_tag = Counter()
    trigram = Counter()
    for sentence in corpus:
        tags = [START, START]
        for word, tag in sentence:
            word_tag[word, tag] += 1
            tags.append(tag)
        tags.append(END)
        trigram.update(zip(tags, tags[1:], tags[2:]))
    return CountsModel(tagset, word_tag, trigram)


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
    _check_transition((prev_tag,), tag)
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
    # a (tag, START) context occurs in no padded sentence either, but stays a
    # well-defined query: its raw ratio is 0 and it backs off to the bigram
    _check_transition((t2, t1), tag)
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
# integer count), each terminated by "count=<records>".  Keys are written as
# they are held in memory, sentinels included, and records are sorted by that
# text.  Records in every section but [tagset] contain a tab, and tag labels
# never start with "count=", so no record reads as a terminator.  The
# model is built from [tagset], [word_tag] and [trigram]; [tag] and [bigram]
# are written from the derived tables and must equal them on load.  Each
# section appears once, no other section is allowed, and no key repeats
# within a section.

_SECTIONS = ("tagset", "word_tag", "tag", "bigram", "trigram")
_TERMINATOR = re.compile(r"count=([0-9]+)")


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
    section("tag", ((t, str(c)) for t, c in sorted(model.tag_count.items())))
    section("bigram", ((*k, str(c)) for k, c in sorted(model.tag_bigram_count.items())))
    section("trigram", ((*k, str(c)) for k, c in sorted(model.tag_trigram_count.items())))


def load_model(source):
    with text_file(source) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise CorruptSection("empty model file")
    header = lines[0]
    if header != MODEL_HEADER:
        if header.startswith(_HEADER_PREFIX):
            version = header[len(_HEADER_PREFIX):]
            raise FormatVersionMismatch(f"unsupported model version {version!r}")
        raise CorruptSection(f"bad header {header!r}")

    sections = {}
    rest = iter(lines[1:])
    for head in rest:
        if not (head.startswith("[") and head.endswith("]")):
            raise CorruptSection(f"expected section header, got {head!r}")
        name, records = head[1:-1], []
        for line in rest:
            if line.startswith("count=") and (terminator := _TERMINATOR.fullmatch(line)):
                break
            records.append(line.split("\t"))
        else:
            raise CorruptSection(f"section {name!r} missing count terminator")
        declared = int(terminator.group(1))
        if declared != len(records):
            raise CorruptSection(
                f"section {name!r} declares {declared} records, found {len(records)}")
        if name not in _SECTIONS:
            raise CorruptSection(f"unknown section [{name}]")
        if name in sections:
            raise CorruptSection(f"repeated section [{name}]")
        sections[name] = records

    for name in _SECTIONS:
        if name not in sections:
            raise CorruptSection(f"missing section [{name}]")

    def table(name, width):
        """{key: count} for a section, each key as written."""
        out = {}
        for rec in sections[name]:
            if len(rec) != width or not (rec[-1].isascii() and rec[-1].isdigit()):
                raise CorruptSection(f"bad record {rec!r}")
            out[rec[0] if width == 2 else tuple(rec[:-1])] = int(rec[-1])
        if len(out) != len(sections[name]):
            raise CorruptSection(f"section [{name}] repeats a key")
        return out

    for rec in sections["tagset"]:
        if len(rec) != 1:
            raise CorruptSection(f"bad record {rec!r}")
    model = CountsModel(Tagset(rec[0] for rec in sections["tagset"]),
                        table("word_tag", 3), table("trigram", 4))
    for name, width, derived in (("tag", 2, model.tag_count),
                                 ("bigram", 3, model.tag_bigram_count)):
        if table(name, width) != derived:
            raise CorruptSection(f"section [{name}] disagrees with [word_tag] and [trigram]")
    return model
