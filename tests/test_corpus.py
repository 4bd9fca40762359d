import io

import pytest
from hypothesis import example, given, strategies as st

from statpos import (
    TaggerConfig,
    Tagset,
    build_counts,
    default_tagset,
    load_corpus,
    load_model,
    parse_tagged_line,
    save_corpus,
    save_model,
    serialize_tagged_sentence,
    tag_sentence,
    tokenize_raw_line,
)
from statpos.errors import (
    CorpusLineError,
    EmptyLine,
    IoFailure,
    MalformedToken,
    UnknownTag,
)
from statpos.taggers import METHODS
from statpos.tagset import DEFAULT_TAGS, InvalidTagLabel


@pytest.fixture
def tagset():
    return default_tagset()


class TestParseTaggedLine:
    def test_devanagari_pair(self, tagset):
        assert parse_tagged_line("एक/QC हंडी/NN", tagset) == [("एक", "QC"), ("हंडी", "NN")]

    def test_single_token(self, tagset):
        assert parse_tagged_line("a/NN", tagset) == [("a", "NN")]

    def test_last_slash_split(self, tagset):
        assert parse_tagged_line("x/y/NN", tagset) == [("x/y", "NN")]

    def test_missing_separator(self, tagset):
        with pytest.raises(MalformedToken) as exc:
            parse_tagged_line("a/NN b", tagset)
        assert exc.value.index == 1

    def test_empty_word_part(self, tagset):
        with pytest.raises(MalformedToken):
            parse_tagged_line("/NN", tagset)

    def test_empty_tag_part(self, tagset):
        with pytest.raises(MalformedToken):
            parse_tagged_line("a/", tagset)

    def test_unknown_tag(self, tagset):
        with pytest.raises(UnknownTag) as exc:
            parse_tagged_line("a/NN b/ZZZ", tagset)
        assert exc.value.tag == "ZZZ"
        assert exc.value.index == 1

    def test_empty_line(self, tagset):
        with pytest.raises(EmptyLine):
            parse_tagged_line("   ", tagset)


class TestLoadCorpus:
    def test_two_lines(self, tagset):
        sentences, skipped = load_corpus(io.StringIO("a/NN b/VM\nc/JJ\n"), tagset)
        assert len(sentences) == 2
        assert sum(len(s) for s in sentences) == 3
        assert skipped == 0

    def test_blank_lines_ignored(self, tagset):
        sentences, _ = load_corpus(io.StringIO("\na/NN\n\n\nb/VM\n"), tagset)
        assert len(sentences) == 2

    def test_crlf_accepted(self, tagset):
        sentences, _ = load_corpus(io.StringIO("a/NN b/VM\r\nc/JJ\r\n"), tagset)
        assert sentences == [[("a", "NN"), ("b", "VM")], [("c", "JJ")]]

    def test_strict_reports_line_number(self, tagset):
        with pytest.raises(CorpusLineError) as exc:
            load_corpus(io.StringIO("a/NN\nbad line\nc/JJ\n"), tagset, strict=True)
        assert exc.value.lineno == 2

    def test_lenient_skips_and_counts(self, tagset):
        sentences, skipped = load_corpus(io.StringIO("a/NN\nbad line\n"), tagset,
                                         strict=False)
        assert len(sentences) == 1
        assert skipped == 1

    def test_empty_stream(self, tagset):
        sentences, skipped = load_corpus(io.StringIO(""), tagset)
        assert sentences == []
        assert skipped == 0

    def test_byte_stream(self, tagset):
        raw = io.BytesIO("एक/QC हंडी/NN\n".encode("utf-8"))
        sentences, _ = load_corpus(raw, tagset)
        assert sentences == [[("एक", "QC"), ("हंडी", "NN")]]
        assert not raw.closed

    def test_missing_file(self, tagset, tmp_path):
        with pytest.raises(IoFailure):
            load_corpus(tmp_path / "nope.txt", tagset)

    @pytest.mark.parametrize("bad", [1, 2, 700, 2999])
    def test_non_utf8_line_number(self, tagset, tmp_path, bad):
        # 3,000 lines span several of the text layer's decoding chunks
        lines = [f"w{i}/NN x/VM".encode() for i in range(1, 3001)]
        lines[bad - 1] = "café/NN".encode("latin-1")
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        for strict in (True, False):
            with pytest.raises(CorpusLineError) as exc:
                load_corpus(path, tagset, strict=strict)
            assert exc.value.lineno == bad


class TestTokenizeRawLine:
    def test_devanagari(self):
        assert tokenize_raw_line("श्याम रंगून गेला .") == ["श्याम", "रंगून", "गेला", "."]

    def test_whitespace_run_collapse(self):
        assert tokenize_raw_line("a  b") == ["a", "b"]

    def test_empty(self):
        with pytest.raises(EmptyLine):
            tokenize_raw_line("")


class TestTagset:
    def test_default_has_23_members(self, tagset):
        assert len(tagset) == 23
        assert list(tagset) == DEFAULT_TAGS

    def test_start_and_end_are_ordinary_labels(self):
        tagset = Tagset(["START", "END"])
        corpus = load_corpus(io.StringIO("a/START b/END\nb/END\n"), tagset)[0]
        buf = io.StringIO()
        save_model(build_counts(corpus, tagset), buf)
        model = load_model(io.StringIO(buf.getvalue()))
        for method in METHODS:
            assert tag_sentence(["a", "b"], model, TaggerConfig(method=method)) == corpus[0]

    @pytest.mark.parametrize("label", ["<S>", "</S>"])
    def test_sentinel_spellings_rejected_as_labels(self, label):
        # the sentinels themselves, in memory and in model files
        with pytest.raises(InvalidTagLabel):
            Tagset(["NN", label])

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidTagLabel, match="empty tag label"):
            Tagset([""])

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidTagLabel):
            Tagset(["NN", "NN"])

    def test_slash_label_rejected(self):
        with pytest.raises(InvalidTagLabel):
            Tagset(["A/B"])

    def test_terminator_like_label_rejected(self):
        with pytest.raises(InvalidTagLabel):
            Tagset(["NN", "count=1"])

    def test_from_file_with_comments(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("# custom tagset\nNN\nVM\n\nJJ\n", encoding="utf-8")
        ts = Tagset.from_file(path)
        assert list(ts) == ["NN", "VM", "JJ"]


word_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1, max_size=8,
)


@given(st.lists(st.tuples(word_strategy, st.sampled_from(DEFAULT_TAGS)),
                min_size=1, max_size=6))
def test_round_trip_property(sentence):
    line = serialize_tagged_sentence(sentence)
    assert parse_tagged_line(line, default_tagset()) == sentence


# words may hold slashes (tokens split at the last one) and any non-ASCII text
corpus_word = st.text(st.one_of(st.just("/"), st.characters(
    exclude_categories=("Zs", "Zl", "Zp", "Cc", "Cs"))), min_size=1, max_size=8)


@given(st.lists(st.lists(st.tuples(corpus_word, st.sampled_from(DEFAULT_TAGS)),
                         min_size=1, max_size=6), max_size=5))
@example([[("a/b", "NN"), ("c/", "VM"), ("//", "SYM")], [("एक", "QC"), ("हंडी/", "NN")]])
def test_save_corpus_round_trip(sentences):
    buf = io.StringIO()
    save_corpus(sentences, buf)
    raw = io.BytesIO(buf.getvalue().encode("utf-8"))
    assert load_corpus(raw, default_tagset()) == (sentences, 0)
