import io
import math
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from statpos import (
    SmoothingConfig,
    Tagset,
    build_counts,
    load_model,
    p_bigram_transition,
    p_tag_given_word,
    p_trigram_transition,
    p_word_given_tag,
    save_model,
)
from statpos.counts import UNIFORM_OPEN_CLASS
from statpos.errors import (
    CorruptSection,
    EmptyCorpus,
    EmptySentence,
    FormatVersionMismatch,
    InvalidConfig,
    StatposError,
    UnknownTag,
    UnknownWord,
)
from statpos import counts
from statpos.tagset import END, START

from conftest import model_from
from line_parser import load_model_by_lines
from randgen import make_rng, random_model

RAW = SmoothingConfig(alpha=0.0, lambda3=1.0, lambda2=0.0, lambda1=0.0)


class TestBuildCounts:
    def test_single_sentence_counts(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert m.word_tag_count[("a", "NN")] == 1
        assert m.tag_bigram_count[(START, "NN")] == 1
        assert m.tag_bigram_count[("NN", "VM")] == 1
        assert m.tag_bigram_count[("VM", END)] == 1
        assert m.total_tokens == 2

    def test_trigram_padding(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert m.tag_trigram_count[(START, START, "NN")] == 1
        assert m.tag_trigram_count[(START, "NN", "VM")] == 1
        assert m.tag_trigram_count[("NN", "VM", END)] == 1

    def test_word_count_aggregation(self, small_tagset):
        m = model_from(["x/NN y/VM", "x/JJ y/VM"], small_tagset)
        assert m.word_count["x"] == 2
        assert m.word_tag_count[("x", "NN")] == 1
        assert m.word_tag_count[("x", "JJ")] == 1

    def test_sentinel_tag_counts(self, small_tagset):
        m = model_from(["a/NN", "b/VM c/NN"], small_tagset)
        assert m.tag_count[START] == 2
        assert m.tag_count[END] == 2
        assert m.total_tokens == 3

    def test_empty_corpus(self, small_tagset):
        with pytest.raises(EmptyCorpus):
            build_counts([], small_tagset)

    def test_unknown_tag_rejected(self, small_tagset):
        with pytest.raises(UnknownTag):
            build_counts([[("a", "ZZZ")]], small_tagset)

    def test_empty_sentence_rejected(self, small_tagset):
        # its padding would count a (START, START, END) trigram and one more START
        with pytest.raises(EmptySentence):
            build_counts([[], [("a", "NN")]], small_tagset)

    def test_sentinel_spellings_are_ordinary_words(self, small_tagset):
        m = build_counts([[("<S>", "NN"), ("</S>", "VM")]], small_tagset)
        assert m.word_tag_count == {("<S>", "NN"): 1, ("</S>", "VM"): 1}
        assert m.tag_count == {"NN": 1, "VM": 1, START: 1, END: 1}


def per_token_counts(corpus):
    """The word/tag and padded trigram counts, one token at a time, each
    table's keys in the order they first occur."""
    word_tag, trigram = {}, {}
    for sentence in corpus:
        tags = [START, START]
        for word, tag in sentence:
            word_tag[word, tag] = word_tag.get((word, tag), 0) + 1
            tags.append(tag)
        tags.append(END)
        for key in zip(tags, tags[1:], tags[2:]):
            trigram[key] = trigram.get(key, 0) + 1
    return word_tag, trigram


def model_text(model):
    buf = io.StringIO()
    save_model(model, buf)
    return buf.getvalue()


class TestBuildCountsAgainstPerToken:
    @pytest.mark.parametrize("seed", range(20))
    def test_counts_and_key_order(self, seed):
        model, corpus = random_model(make_rng(seed), max_sentences=30, max_len=8)
        word_tag, trigram = per_token_counts(corpus)
        assert list(model.word_tag_count.items()) == list(word_tag.items())
        assert list(model.tag_trigram_count.items()) == list(trigram.items())
        assert list(model.vocabulary) == list(dict.fromkeys(w for w, _ in word_tag))

    @pytest.mark.parametrize("seed", range(5))
    def test_generator_corpus(self, seed):
        model, corpus = random_model(make_rng(seed), max_sentences=30, max_len=8)
        from_generator = build_counts((sentence for sentence in corpus), model.tagset)
        assert list(from_generator.vocabulary) == list(model.vocabulary)
        assert model_text(from_generator) == model_text(model)

    @pytest.mark.parametrize("seed", range(5))
    def test_pairs_as_lists(self, seed):
        model, corpus = random_model(make_rng(seed), max_sentences=30, max_len=8)
        as_lists = [[list(pair) for pair in sentence] for sentence in corpus]
        assert model_text(build_counts(as_lists, model.tagset)) == model_text(model)

    def test_empty_generator(self, small_tagset):
        with pytest.raises(EmptyCorpus):
            build_counts(iter([]), small_tagset)

    def test_empty_sentence_in_a_generator(self, small_tagset):
        with pytest.raises(EmptySentence):
            build_counts(iter([[("a", "NN")], []]), small_tagset)


class TestMarginalizationInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_tables_are_consistent(self, seed):
        model, _ = random_model(make_rng(seed))
        for w in model.vocabulary:
            assert sum(c for (word, _), c in model.word_tag_count.items()
                       if word == w) == model.word_count[w]
        for t in model.tagset:
            assert sum(c for (word, tag), c in model.word_tag_count.items()
                       if tag == t) == model.tag_count.get(t, 0)
        for prev in list(model.tagset) + [START]:
            assert sum(c for (a, _), c in model.tag_bigram_count.items()
                       if a == prev) == model.tag_count.get(prev, 0)
        # trigram contexts marginalize to bigram counts except the
        # sentence-final (t, END) bigrams and the (START, START) context
        tri_ctx = Counter()
        for (a, b, _), c in model.tag_trigram_count.items():
            tri_ctx[(a, b)] += c
        for (a, b), c in model.tag_bigram_count.items():
            if b == END:
                continue
            assert tri_ctx[(a, b)] == c
        assert tri_ctx[(START, START)] == model.tag_count[START]


class TestTagGivenWord:
    def test_sole_occurrence(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert p_tag_given_word(m, "a", "NN") == 1.0

    def test_split_occurrences(self, small_tagset):
        m = model_from(["x/NN y/VM", "x/JJ y/VM"], small_tagset)
        assert p_tag_given_word(m, "x", "NN") == 0.5

    def test_zero_count(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert p_tag_given_word(m, "a", "VM") == 0.0

    def test_unknown_word_raises(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(UnknownWord):
            p_tag_given_word(m, "zzz", "NN")

    def test_distribution_sums_to_one(self, small_tagset):
        m = model_from(["x/NN y/VM", "x/JJ y/VM", "x/NN z/QC"], small_tagset)
        for w in m.vocabulary:
            assert sum(p_tag_given_word(m, w, t) for t in m.tagset) == pytest.approx(1.0, abs=1e-12)


class TestWordGivenTag:
    def test_raw_ratio(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert p_word_given_tag(m, "a", "NN", RAW) == 1.0
        assert p_word_given_tag(m, "b", "NN", RAW) == 0.0

    def test_two_by_two(self, small_tagset):
        m = model_from(["x/NN y/VM", "x/NN z/VM"], small_tagset)
        assert p_word_given_tag(m, "x", "NN", RAW) == 1.0
        assert p_word_given_tag(m, "y", "VM", RAW) == 0.5

    def test_unknown_uniform_open_class(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        cfg = SmoothingConfig(unknown_policy=UNIFORM_OPEN_CLASS,
                              open_class_tags=frozenset({"NN", "VM", "JJ"}))
        assert p_word_given_tag(m, "oov", "NN", cfg) == pytest.approx(1 / 3)
        floor = cfg.alpha / (m.tag_count.get("QC", 0) + cfg.alpha * len(m.vocabulary))
        assert p_word_given_tag(m, "oov", "QC", cfg) == pytest.approx(floor)

    def test_unknown_single_tag(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        cfg = SmoothingConfig(unknown_policy="NN")
        assert p_word_given_tag(m, "oov", "NN", cfg) == 1.0
        floor = cfg.alpha / (m.tag_count["VM"] + cfg.alpha * len(m.vocabulary))
        assert p_word_given_tag(m, "oov", "VM", cfg) == pytest.approx(floor)


class TestBigramTransition:
    def test_sole_successor(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert p_bigram_transition(m, "NN", "VM", RAW) == 1.0
        assert p_bigram_transition(m, "NN", "NN", RAW) == 0.0

    def test_three_way_split(self, small_tagset):
        m = model_from(["a/NN b/VM", "a/NN c/NN"], small_tagset)
        assert p_bigram_transition(m, "NN", "VM", RAW) == pytest.approx(1 / 3)

    def test_smoothed_normalization(self, small_tagset):
        m = model_from(["a/NN b/VM", "c/JJ d/QC e/RB"], small_tagset)
        cfg = SmoothingConfig(alpha=0.5)
        for prev in list(m.tagset) + [START]:
            total = sum(p_bigram_transition(m, prev, t, cfg) for t in m.tagset)
            total += p_bigram_transition(m, prev, END, cfg)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_tag(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(UnknownTag):
            p_bigram_transition(m, "ZZZ", "NN", RAW)


class TestTrigramTransition:
    def test_sole_continuation(self, small_tagset):
        m = model_from(["a/NN b/VM c/JJ"], small_tagset)
        assert p_trigram_transition(m, "NN", "VM", "JJ", RAW) == 1.0
        assert p_trigram_transition(m, "NN", "VM", "NN", RAW) == 0.0

    def test_interpolated_combination(self, small_tagset):
        m = model_from(["a/NN b/VM c/JJ"], small_tagset)
        cfg = SmoothingConfig(alpha=0.001, lambda3=0.6, lambda2=0.3, lambda1=0.1)
        p2 = p_bigram_transition(m, "VM", "JJ", cfg)
        p1 = (m.tag_count["JJ"] + cfg.alpha) / (
            sum(m.tag_count.values()) + cfg.alpha * (len(m.tagset) + 2))
        expected = 0.6 * 1.0 + 0.3 * p2 + 0.1 * p1
        assert p_trigram_transition(m, "NN", "VM", "JJ", cfg) == pytest.approx(expected, abs=1e-12)

    def test_start_start_context(self, small_tagset):
        m = model_from(["a/NN b/VM", "c/VM d/NN"], small_tagset)
        assert p_trigram_transition(m, START, START, "NN", RAW) == 0.5

    def test_unseen_context_backs_off_to_zero(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert p_trigram_transition(m, "JJ", "QC", "NN", RAW) == 0.0


@pytest.mark.parametrize("prob,key,accepted", [
    (p_bigram_transition, (START, "NN"), True),
    (p_bigram_transition, ("NN", END), True),
    (p_bigram_transition, (END, "NN"), False),
    (p_bigram_transition, ("NN", START), False),
    (p_bigram_transition, (START, START), False),
    (p_bigram_transition, (START, END), True),
    (p_trigram_transition, (START, START, "NN"), True),
    (p_trigram_transition, ("NN", START, "VM"), True),
    (p_trigram_transition, ("NN", "VM", END), True),
    (p_trigram_transition, (END, "NN", "VM"), False),
    (p_trigram_transition, ("NN", END, "VM"), False),
    (p_trigram_transition, ("NN", "VM", START), False),
    (p_trigram_transition, (START, START, END), False),
], ids=["bigram-from-start", "bigram-to-end", "bigram-from-end", "bigram-to-start",
        "bigram-start-to-start", "bigram-start-to-end", "trigram-start-start",
        "trigram-tag-start", "trigram-to-end", "trigram-end-first", "trigram-end-second",
        "trigram-to-start", "trigram-start-start-end"])
def test_sentinel_placement_in_transitions(small_tagset, prob, key, accepted):
    # no padded sentence has a tag after END, START after a tag, or END
    # after two STARTs (the padding of an empty sentence); the (tag, START)
    # context is a query that stays well-defined, and so is the bigram
    # (START, END): the smoothed P(. | START) counts END among its T+1
    # outcomes, and the normalization criterion sums over them
    m = model_from(["a/NN b/VM"], small_tagset)
    if accepted:
        assert 0.0 <= prob(m, *key, SmoothingConfig()) <= 1.0
    else:
        with pytest.raises(StatposError, match="no transition in a padded sentence"):
            prob(m, *key, SmoothingConfig())


class TestEquationExactness:
    """Raw-configuration queries equal direct integer-count ratios recomputed
    from the corpus without going through the model's tables."""

    @pytest.mark.parametrize("seed", range(30))
    def test_against_recount(self, seed):
        rng = make_rng(1000 + seed)
        model, corpus = random_model(rng)
        wt = Counter()
        wc = Counter()
        tc = Counter()
        bi = Counter()
        tri = Counter()
        nsent = 0
        for sent in corpus:
            nsent += 1
            tags = [t for _, t in sent]
            for w, t in sent:
                wt[(w, t)] += 1
                wc[w] += 1
                tc[t] += 1
            seq = [START] + tags + [END]
            for a, b in zip(seq, seq[1:]):
                bi[(a, b)] += 1
            seq2 = [START] + seq
            for a, b, c in zip(seq2, seq2[1:], seq2[2:]):
                tri[(a, b, c)] += 1
        labels = list(model.tagset)
        for w in wc:
            for t in labels:
                assert p_tag_given_word(model, w, t) == pytest.approx(
                    wt[(w, t)] / wc[w], abs=1e-12)
                assert p_word_given_tag(model, w, t, RAW) == pytest.approx(
                    wt[(w, t)] / tc[t] if tc[t] else 0.0, abs=1e-12)
        for a in labels + [START]:
            prev_total = tc[a] if a != START else nsent
            for b in labels + [END]:
                expected = bi[(a, b)] / prev_total if prev_total else 0.0
                assert p_bigram_transition(model, a, b, RAW) == pytest.approx(expected, abs=1e-12)
        for a in labels + [START]:
            for b in labels:
                ctx = nsent if (a, b) == (START, START) else bi[(a, b)]
                for c in labels + [END]:
                    expected = tri[(a, b, c)] / ctx if ctx else 0.0
                    assert p_trigram_transition(model, a, b, c, RAW) == pytest.approx(
                        expected, abs=1e-12)

    def test_count_scaling_leaves_ratios_unchanged(self, small_tagset):
        lines = ["x/NN y/VM", "x/JJ z/QC", "y/VM x/NN"]
        m1 = model_from(lines, small_tagset)
        m3 = model_from(lines * 3, small_tagset)
        for w in m1.vocabulary:
            for t in m1.tagset:
                assert p_tag_given_word(m1, w, t) == pytest.approx(
                    p_tag_given_word(m3, w, t), abs=1e-12)


# Any non-whitespace Unicode word, the sentinel spellings included; the
# second branch makes words that mimic a section terminator.
_word_char = st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace())
model_word = st.one_of(
    st.text(_word_char, min_size=1, max_size=8),
    st.text(st.sampled_from("0123456789"), max_size=3).map(lambda d: "count=" + d),
)


class TestModelSerialization:
    def roundtrip(self, model):
        buf = io.StringIO()
        save_model(model, buf)
        return load_model(io.StringIO(buf.getvalue()))

    def assert_same(self, loaded, model):
        assert loaded.word_tag_count == model.word_tag_count
        assert loaded.tag_count == model.tag_count
        assert loaded.tag_bigram_count == model.tag_bigram_count
        assert loaded.tag_trigram_count == model.tag_trigram_count
        assert loaded.total_tokens == model.total_tokens
        assert list(loaded.tagset) == list(model.tagset)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_random(self, seed):
        model, _ = random_model(make_rng(2000 + seed))
        self.assert_same(self.roundtrip(model), model)

    @given(st.lists(st.lists(st.tuples(model_word, st.sampled_from(["JJ", "NN", "VM"])),
                             min_size=1, max_size=5),
                    min_size=1, max_size=4))
    @example([[("a", "NN"), ("count=1", "NN"), ("b", "VM")]])
    @example([[(START, "NN"), ("a", "VM")], [(END, "JJ"), (START, "NN")]])
    def test_round_trip_any_words(self, corpus):
        model = build_counts(corpus, Tagset(["JJ", "NN", "VM"]))
        self.assert_same(self.roundtrip(model), model)

    def test_save_to_path_writes_stream_bytes(self, tmp_path):
        model, _ = random_model(make_rng(7))
        buf = io.StringIO()
        save_model(model, buf)
        path = tmp_path / "m.txt"
        path.write_text("old", encoding="utf-8")
        save_model(model, path)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        def half_written(model, fh):
            fh.write(counts.MODEL_HEADER + "\n")
            raise OSError("disk full")

        path = tmp_path / "m.txt"
        path.write_text("previous", encoding="utf-8")
        monkeypatch.setattr(counts, "_write_model", half_written)
        with pytest.raises(OSError):
            save_model(model_from(["a/NN"], Tagset(["NN"])), path)
        assert path.read_text(encoding="utf-8") == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]

    def test_round_trip_slash_words(self, small_tagset):
        model = model_from(["a/b/NN c//VM"], small_tagset)
        loaded = self.roundtrip(model)
        assert loaded.word_tag_count == {("a/b", "NN"): 1, ("c/", "VM"): 1}

    def test_truncated_file(self, small_tagset):
        model = model_from(["a/NN b/VM"], small_tagset)
        buf = io.StringIO()
        save_model(model, buf)
        truncated = buf.getvalue()[: len(buf.getvalue()) // 2]
        with pytest.raises(CorruptSection):
            load_model(io.StringIO(truncated))

    def test_wrong_record_count(self, small_tagset):
        model = model_from(["a/NN b/VM"], small_tagset)
        buf = io.StringIO()
        save_model(model, buf)
        mangled = buf.getvalue().replace("count=2", "count=3", 1)
        with pytest.raises(CorruptSection):
            load_model(io.StringIO(mangled))

    def test_version_mismatch(self):
        with pytest.raises(FormatVersionMismatch):
            load_model(io.StringIO("NGRAM-POS-MODEL v2\n"))

    def test_golden_file(self):
        model = model_from(["a/NN b/VM", "c/NN"], Tagset(["NN", "VM"]))
        buf = io.StringIO()
        save_model(model, buf)
        assert buf.getvalue() == GOLDEN_MODEL

    def test_old_record_order_loads(self):
        self.assert_same(load_model(io.StringIO(OLD_ORDER_MODEL)),
                         load_model(io.StringIO(GOLDEN_MODEL)))


# save_model's exact output for the corpus "a/NN b/VM", "c/NN"
GOLDEN_MODEL = """NGRAM-POS-MODEL v1
[tagset]
NN
VM
count=2
[word_tag]
a\tNN\t1
b\tVM\t1
c\tNN\t1
count=3
[tag]
</S>\t2
<S>\t2
NN\t2
VM\t1
count=4
[bigram]
<S>\tNN\t2
NN\t</S>\t1
NN\tVM\t1
VM\t</S>\t1
count=4
[trigram]
<S>\t<S>\tNN\t2
<S>\tNN\t</S>\t1
<S>\tNN\tVM\t1
NN\tVM\t</S>\t1
count=4
"""

# The same model as earlier releases wrote it: they sorted the [tag],
# [bigram] and [trigram] records as if the sentinels were spelled START and END.
OLD_ORDER_MODEL = """NGRAM-POS-MODEL v1
[tagset]
NN
VM
count=2
[word_tag]
a\tNN\t1
b\tVM\t1
c\tNN\t1
count=3
[tag]
</S>\t2
NN\t2
<S>\t2
VM\t1
count=4
[bigram]
NN\t</S>\t1
NN\tVM\t1
<S>\tNN\t2
VM\t</S>\t1
count=4
[trigram]
NN\tVM\t</S>\t1
<S>\tNN\t</S>\t1
<S>\tNN\tVM\t1
<S>\t<S>\tNN\t2
count=4
"""


def edit_model(old, new):
    """GOLDEN_MODEL with one record replaced."""
    assert old in GOLDEN_MODEL
    return io.StringIO(GOLDEN_MODEL.replace(old, new, 1))


class TestModelConsistency:
    """load_model builds the model from [tagset], [word_tag] and [trigram] and
    rejects a file whose other sections, tags or counts disagree with them."""

    def test_golden_file_loads(self):
        model = load_model(io.StringIO(GOLDEN_MODEL))
        assert model.tag_count == {START: 2, END: 2, "NN": 2, "VM": 1}
        assert model.total_tokens == 3

    def test_empty_sections_load(self):
        sections = ("word_tag", "tag", "bigram", "trigram")
        text = ("NGRAM-POS-MODEL v1\n[tagset]\nNN\ncount=1\n"
                + "".join(f"[{name}]\ncount=0\n" for name in sections))
        model = load_model(io.StringIO(text))
        assert model.tag_count == {} and model.total_tokens == 0

    @pytest.mark.parametrize("old, new", [
        ("NN\t2\nVM", "NN\t3\nVM"),
        ("<S>\t2\nNN", "<S>\t1\nNN"),
        ("NN\tVM\t1\nVM\t</S>", "NN\tVM\t2\nVM\t</S>"),
        ("\nVM\t</S>\t1\ncount", "\nVM\tNN\t1\ncount"),
    ], ids=["tag-count", "tag-sentinel", "bigram-count", "bigram-key"])
    def test_derived_section_disagrees(self, old, new):
        with pytest.raises(CorruptSection, match="disagrees"):
            load_model(edit_model(old, new))

    @pytest.mark.parametrize("old, new", [
        ("b\tVM\t1", "b\tJJ\t1"),
        ("b\tVM\t1", "b\t<S>\t1"),
        ("NN\tVM\t</S>\t1", "JJ\tVM\t</S>\t1"),
        ("<S>\tNN\tVM\t1", "<S>\tNN\tJJ\t1"),
    ], ids=["word_tag", "word_tag-sentinel", "trigram-first", "trigram-last"])
    def test_foreign_tag(self, old, new):
        with pytest.raises(UnknownTag):
            load_model(edit_model(old, new))

    @pytest.mark.parametrize("edits", [
        [("NN\tVM\t</S>\t1", "NN\t</S>\tVM\t1"), ("\nVM\t</S>\t1\n", "\n</S>\tVM\t1\n")],
        [("NN\tVM\t</S>\t1", "</S>\tVM\t</S>\t1")],
        [("<S>\tNN\tVM\t1", "NN\t<S>\tVM\t1"), ("\nNN\tVM\t1\n", "\n<S>\tVM\t1\n")],
        [("NN\tVM\t</S>\t1", "NN\tVM\t<S>\t1"), ("\nVM\t</S>\t1\n", "\nVM\t<S>\t1\n")],
        # the trigram of an empty sentence, with one more START and END
        [("\n</S>\t2\n<S>\t2\n", "\n</S>\t3\n<S>\t3\n"),
         ("[bigram]\n", "[bigram]\n<S>\t</S>\t1\n"),
         ("VM\t</S>\t1\ncount=4\n[trigram]", "VM\t</S>\t1\ncount=5\n[trigram]"),
         ("[trigram]\n", "[trigram]\n<S>\t<S>\t</S>\t1\n"),
         ("NN\tVM\t</S>\t1\ncount=4\n", "NN\tVM\t</S>\t1\ncount=5\n")],
    ], ids=["end-second", "end-first", "start-second-after-tag", "start-third", "empty-sentence"])
    def test_sentinel_out_of_place(self, edits):
        # each edit keeps [tag] and [bigram] equal to the derived tables;
        # the line-by-line parser refuses the file alike
        text = GOLDEN_MODEL
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        for parse in (load_model, load_model_by_lines):
            with pytest.raises(CorruptSection, match="sentinel out of place"):
                parse(io.StringIO(text))

    @pytest.mark.parametrize("old, new, message", [
        ("[word_tag]\n", "[word_tag]\ncount=0\n[word_tag]\n", "repeated section"),
        ("[tag]\n", "[junk]\nx\t1\ncount=1\n[tag]\n", "unknown section"),
        ("count=2\n[word_tag]\n", "count=2\nNN\n[word_tag]\n", "expected section header"),
        (GOLDEN_MODEL[GOLDEN_MODEL.index("[trigram]"):], "", r"missing section \[trigram\]"),
    ], ids=["repeated", "unknown", "record-before-header", "missing"])
    def test_section_outside_the_format(self, old, new, message):
        with pytest.raises(CorruptSection, match=message):
            load_model(edit_model(old, new))

    def test_tagset_record_with_extra_fields(self):
        with pytest.raises(CorruptSection, match="bad record"):
            load_model(edit_model("[tagset]\nNN\n", "[tagset]\nNN\tJJ\t7\n"))

    @pytest.mark.parametrize("old, new", [
        ("a\tNN\t1\nb\tVM\t1\nc\tNN\t1\ncount=3",
         "a\tNN\t5\na\tNN\t1\nb\tVM\t1\nc\tNN\t1\ncount=4"),
        ("NN\t2\nVM\t1\ncount=4", "NN\t7\nNN\t2\nVM\t1\ncount=5"),
        ("\nVM\t</S>\t1\ncount=4", "\nVM\t</S>\t3\nVM\t</S>\t1\ncount=5"),
        ("<S>\t<S>\tNN\t2\n<S>\tNN\t</S>\t1\n<S>\tNN\tVM\t1\nNN\tVM\t</S>\t1\ncount=4",
         "<S>\t<S>\tNN\t9\n<S>\t<S>\tNN\t2\n<S>\tNN\t</S>\t1\n<S>\tNN\tVM\t1\n"
         "NN\tVM\t</S>\t1\ncount=5"),
    ], ids=["word_tag", "tag", "bigram", "trigram"])
    def test_repeated_key(self, old, new):
        # the last record carries the true count, so only the repeat is wrong
        with pytest.raises(CorruptSection, match="repeats a key"):
            load_model(edit_model(old, new))

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663", "-1", "+1", "1.0", ""])
    def test_count_not_ascii_digits(self, count):
        with pytest.raises(CorruptSection, match="bad record"):
            load_model(edit_model("a\tNN\t1", f"a\tNN\t{count}"))

    @pytest.mark.parametrize("header, error, message", [
        ("NGRAM-POS-MODEL-junk-v1", CorruptSection, "bad header"),
        ("NGRAM-POS-MODELv1", CorruptSection, "bad header"),
        ("ngram-pos-model v1", CorruptSection, "bad header"),
        ("NGRAM-POS-MODEL v2", FormatVersionMismatch, "'2'"),
        ("NGRAM-POS-MODEL v1.0", FormatVersionMismatch, "'1.0'"),
        ("NGRAM-POS-MODEL v1 ", FormatVersionMismatch, "'1 '"),
    ], ids=["junk-before-version", "no-space", "lower-case", "v2", "v1.0", "trailing-space"])
    def test_header_other_than_v1(self, header, error, message):
        with pytest.raises(error, match=message):
            load_model(edit_model("NGRAM-POS-MODEL v1\n", header + "\n"))

    def test_empty_file(self):
        with pytest.raises(CorruptSection, match="empty model file"):
            load_model(io.StringIO(""))


def parse_outcome(parse, source):
    """What a parser makes of a model file: the model's tables, or the type
    and message of the exception it raises."""
    try:
        model = parse(source)
    except Exception as e:
        return type(e), str(e)
    return (list(model.tagset), model.word_tag_count, model.tag_trigram_count,
            model.tag_count, model.tag_bigram_count, model.total_tokens)


def _lines_with(text, pick):
    lines = text.split("\n")
    return lines, [i for i, line in enumerate(lines) if pick(line)]


def _edit_line(text, pick, edit, k):
    """text with edit applied to the (k mod n)-th of the n lines that pick
    selects, unchanged if none does; edit returns the replacement lines."""
    lines, chosen = _lines_with(text, pick)
    if not chosen:
        return text
    i = chosen[k % len(chosen)]
    lines[i:i + 1] = edit(lines[i], k // len(chosen))
    return "\n".join(lines)


def _is_record(line):
    return "\t" in line


def _is_terminator(line):
    return line.startswith("count=") and line[6:].isdigit()


def _is_header(line):
    return line.startswith("[") and line.endswith("]") and "\t" not in line


def _drop_tab(line, k):
    tabs = [j for j, c in enumerate(line) if c == "\t"]
    j = tabs[k % len(tabs)]
    return [line[:j] + line[j + 1:]]


def _recount(line, k):
    return [f"count={max(0, int(line[6:]) + (1 if k % 2 else -1))}"]


def _repeat_key(text, k):
    # the copy carries another count, and the terminator counts it, unless
    # an earlier mutation took the terminator out
    lines, chosen = _lines_with(text, _is_record)
    if not chosen:
        return text
    i = chosen[k % len(chosen)]
    end = next((j for j in range(i, len(lines)) if _is_terminator(lines[j])), None)
    if end is not None:
        lines[end] = f"count={int(lines[end][6:]) + 1}"
    lines.insert(i, lines[i].rpartition("\t")[0] + f"\t{k % 5}")
    return "\n".join(lines)


# name -> edit(text, k): the mutations of a well-formed model file
MUTATIONS = {
    "drop-tab": lambda text, k: _edit_line(text, _is_record, _drop_tab, k),
    "extra-tab": lambda text, k: _edit_line(
        text, lambda line: True, lambda line, k: [line[:k % (len(line) + 1)] + "\t"
                                                  + line[k % (len(line) + 1):]], k),
    "bad-count": lambda text, k: _edit_line(
        text, _is_record, lambda line, k: [line.rpartition("\t")[0] + "\t"
                                           + ("", "\u0661", "+3")[k % 3]], k),
    "zero-count": lambda text, k: _edit_line(
        text, _is_record, lambda line, k: [line.rpartition("\t")[0] + "\t0"], k),
    "repeated-key": _repeat_key,
    "wrong-count": lambda text, k: _edit_line(text, _is_terminator, _recount, k),
    "no-terminator": lambda text, k: _edit_line(text, _is_terminator, lambda line, k: [], k),
    "trailing-blank-line": lambda text, k: text + "\n",
    "no-final-newline": lambda text, k: text[:-1] if text.endswith("\n") else text,
    "trailing-text": lambda text, k: text + "[tag]\n"[:1 + k % 6],
    "header-without-bracket": lambda text, k: _edit_line(
        text, _is_header, lambda line, k: [line[:-1]], k),
    "header-double-bracket": lambda text, k: _edit_line(
        text, _is_header, lambda line, k: [line + "]"], k),
    "header-trailing-text": lambda text, k: _edit_line(
        text, _is_header, lambda line, k: [line + ("x", "\t", " ")[k % 3]], k),
    "record-reads-count": lambda text, k: _edit_line(
        text, _is_record, lambda line, k: ["count=12x"], k),
    "non-ascii-terminator": lambda text, k: _edit_line(
        text, _is_terminator, lambda line, k: ["count=\u0661"], k),
}


class TestLoadModelAgainstLineParser:
    """load_model parses each section whole; it must agree with the
    line-by-line parser on every input, its errors included."""

    def assert_agree(self, text):
        expected = parse_outcome(load_model_by_lines, io.StringIO(text))
        assert parse_outcome(load_model, io.StringIO(text)) == expected
        return expected

    @given(st.lists(st.lists(st.tuples(model_word, st.sampled_from(["JJ", "NN", "VM"])),
                             min_size=1, max_size=4),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 1000)),
                    max_size=3))
    @example([[("a", "NN")]], [("bad-count", 1)])
    @example([[("count=1", "NN")]], [("no-terminator", 0)])
    @example([[("a", "NN")]], [("trailing-blank-line", 0)])
    @example([[("a", "NN")]], [("no-final-newline", 0)])
    @example([[("count=", "JJ")]], [("no-terminator", 94), ("repeated-key", 6)])
    def test_mutated_files(self, corpus, mutations):
        buf = io.StringIO()
        save_model(build_counts(corpus, Tagset(["JJ", "NN", "VM"])), buf)
        text = buf.getvalue()
        for name, k in mutations:
            text = MUTATIONS[name](text, k)
        self.assert_agree(text)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_each_mutation_is_rejected_alike(self, name):
        for k in range(40):
            text = MUTATIONS[name](GOLDEN_MODEL, k)
            outcome = self.assert_agree(text)
            if name == "no-final-newline":
                assert outcome == parse_outcome(load_model, io.StringIO(GOLDEN_MODEL))
            else:
                assert outcome[0] is CorruptSection, (k, outcome)

    def test_crlf_file(self, tmp_path):
        # a path and a byte stream are read with universal newlines
        crlf = GOLDEN_MODEL.replace("\n", "\r\n").encode("utf-8")
        path = tmp_path / "model.txt"
        path.write_bytes(crlf)
        golden = parse_outcome(load_model, io.StringIO(GOLDEN_MODEL))
        for source in (lambda: path, lambda: io.BytesIO(crlf)):
            assert parse_outcome(load_model, source()) == golden
            assert parse_outcome(load_model_by_lines, source()) == golden
        # a text stream that keeps "\r" is not a model file, for either parser
        assert self.assert_agree(crlf.decode("utf-8"))[0] is FormatVersionMismatch

    def test_byte_order_mark(self, tmp_path):
        # a path and a byte stream skip it; a text stream that keeps it is
        # not a model file
        bom = b"\xef\xbb\xbf" + GOLDEN_MODEL.encode("utf-8")
        path = tmp_path / "model.txt"
        path.write_bytes(bom)
        golden = parse_outcome(load_model, io.StringIO(GOLDEN_MODEL))
        for source in (lambda: path, lambda: io.BytesIO(bom)):
            assert parse_outcome(load_model, source()) == golden
            assert parse_outcome(load_model_by_lines, source()) == golden
        assert self.assert_agree(bom.decode("utf-8"))[0] is CorruptSection

    def test_byte_stream(self):
        source = GOLDEN_MODEL.encode("utf-8")
        assert (parse_outcome(load_model, io.BytesIO(source))
                == parse_outcome(load_model_by_lines, io.BytesIO(source))
                == parse_outcome(load_model, io.StringIO(GOLDEN_MODEL)))


class TestSmoothingConfig:
    def test_bad_lambdas(self):
        with pytest.raises(ValueError):
            SmoothingConfig(lambda3=0.5, lambda2=0.5, lambda1=0.5)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            SmoothingConfig(alpha=-1.0)

    @pytest.mark.parametrize("settings", [
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"lambda3": math.nan},
        {"lambda1": math.nan},
    ])
    def test_non_finite_rejected(self, settings):
        with pytest.raises(InvalidConfig):
            SmoothingConfig(**settings)
