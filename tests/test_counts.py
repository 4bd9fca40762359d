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
    FormatVersionMismatch,
    InvalidConfig,
    StatposError,
    UnknownTag,
    UnknownWord,
)
from statpos import counts
from statpos.tagset import END, END_SERIALIZED, START, START_SERIALIZED

from conftest import model_from
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

    def test_reserved_word_rejected(self, small_tagset):
        with pytest.raises(StatposError):
            build_counts([[("<S>", "NN")]], small_tagset)


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


# Any non-whitespace Unicode word except the sentinel spellings, which
# build_counts rejects; the second branch makes words that mimic a section
# terminator.
_word_char = st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace())
model_word = st.one_of(
    st.text(_word_char, min_size=1, max_size=8),
    st.text(st.sampled_from("0123456789"), max_size=3).map(lambda d: "count=" + d),
).filter(lambda w: w not in (START_SERIALIZED, END_SERIALIZED))


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
        sections = ("tagset", "word_tag", "tag", "bigram", "trigram")
        text = "NGRAM-POS-MODEL v1\n" + "".join(f"[{name}]\ncount=0\n" for name in sections)
        model = load_model(io.StringIO(text))
        assert model.tag_count == {} and model.total_tokens == 0

    @pytest.mark.parametrize("old, new", [
        ("NN\t2\n<S>", "NN\t3\n<S>"),
        ("<S>\t2\nVM", "<S>\t1\nVM"),
        ("NN\tVM\t1\n<S>\tNN\t2", "NN\tVM\t2\n<S>\tNN\t2"),
        ("VM\t</S>\t1\ncount", "VM\tNN\t1\ncount"),
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
    ], ids=["end-second", "end-first", "start-second-after-tag", "start-third"])
    def test_sentinel_out_of_place(self, edits):
        # each edit keeps [tag] and [bigram] equal to the derived tables
        text = GOLDEN_MODEL
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        with pytest.raises(CorruptSection, match="sentinel out of place"):
            load_model(io.StringIO(text))

    def test_tagset_record_with_extra_fields(self):
        with pytest.raises(CorruptSection, match="bad record"):
            load_model(edit_model("[tagset]\nNN\n", "[tagset]\nNN\tJJ\t7\n"))

    @pytest.mark.parametrize("old, new", [
        ("a\tNN\t1\nb\tVM\t1\nc\tNN\t1\ncount=3",
         "a\tNN\t5\na\tNN\t1\nb\tVM\t1\nc\tNN\t1\ncount=4"),
        ("NN\t2\n<S>\t2\nVM\t1\ncount=4", "NN\t7\nNN\t2\n<S>\t2\nVM\t1\ncount=5"),
        ("VM\t</S>\t1\ncount=4", "VM\t</S>\t3\nVM\t</S>\t1\ncount=5"),
        ("<S>\t<S>\tNN\t2\ncount=4", "<S>\t<S>\tNN\t9\n<S>\t<S>\tNN\t2\ncount=5"),
    ], ids=["word_tag", "tag", "bigram", "trigram"])
    def test_repeated_key(self, old, new):
        # the last record carries the true count, so only the repeat is wrong
        with pytest.raises(CorruptSection, match="repeats a key"):
            load_model(edit_model(old, new))

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663", "-1", "+1", "1.0", ""])
    def test_count_not_ascii_digits(self, count):
        with pytest.raises(CorruptSection, match="bad record"):
            load_model(edit_model("a\tNN\t1", f"a\tNN\t{count}"))


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
