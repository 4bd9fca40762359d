"""Statistical POS tagging toolkit.

Trains frequency-count models from word/TAG corpora and decodes raw text
with unigram, bigram, trigram and bidirectional-HMM methods.
"""

from .corpus import (
    load_corpus,
    parse_tagged_line,
    save_corpus,
    serialize_tagged_sentence,
    tokenize_raw_line,
)
from .counts import (
    CountsModel,
    SmoothingConfig,
    UNIFORM_OPEN_CLASS,
    build_counts,
    load_model,
    p_bigram_transition,
    p_tag_given_word,
    p_trigram_transition,
    p_word_given_tag,
    save_model,
)
from .evaluation import EvaluationReport, evaluate, format_report, round_percent
from .tagset import END, START, Tagset, default_tagset

# The decoders import numpy, which training and counting never use, so they
# load on first access.
_TAGGERS = frozenset({"DecodeTrace", "TaggerConfig", "brute_force_decode", "decode_with_trace",
                      "score_sequence", "tag_corpus", "tag_sentence"})


def __getattr__(name):
    if name in _TAGGERS:
        from . import taggers
        return getattr(taggers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CountsModel",
    "DecodeTrace",
    "END",
    "EvaluationReport",
    "START",
    "SmoothingConfig",
    "TaggerConfig",
    "Tagset",
    "UNIFORM_OPEN_CLASS",
    "brute_force_decode",
    "build_counts",
    "decode_with_trace",
    "default_tagset",
    "evaluate",
    "format_report",
    "load_corpus",
    "load_model",
    "p_bigram_transition",
    "p_tag_given_word",
    "p_trigram_transition",
    "p_word_given_tag",
    "parse_tagged_line",
    "round_percent",
    "save_corpus",
    "save_model",
    "score_sequence",
    "serialize_tagged_sentence",
    "tag_corpus",
    "tag_sentence",
    "tokenize_raw_line",
]
