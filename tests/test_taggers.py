import gc
import math
import weakref
from collections import Counter

import pytest

from statpos import (
    SmoothingConfig,
    TaggerConfig,
    Tagset,
    brute_force_decode,
    build_counts,
    decode_with_trace,
    score_sequence,
    tag_sentence,
)
from statpos import kernels, taggers
from statpos.errors import EmptySentence, InstanceTooLarge, LengthMismatch, UnknownTag

from conftest import model_from
from randgen import make_rng, random_model, random_sentence

DP_METHODS = ("bigram", "trigram", "hmm")
RAW = SmoothingConfig(alpha=0.0, lambda3=1.0, lambda2=0.0, lambda1=0.0)


def cfg(method, smoothing=None):
    return TaggerConfig(method=method, smoothing=smoothing or SmoothingConfig())


def count_calls(monkeypatch, owner, names):
    """A Counter of the calls made through owner.<name>, for each name."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


class TestUnigram:
    def test_majority_tag_wins(self, small_tagset):
        m = model_from(["x/NN y/VM", "x/NN z/VM", "x/JJ w/VM"], small_tagset)
        assert tag_sentence(["x"], m, cfg("unigram")) == [("x", "NN")]

    def test_unique_tag(self, small_tagset):
        m = model_from(["x/NN q/QC"], small_tagset)
        assert tag_sentence(["q"], m, cfg("unigram")) == [("q", "QC")]

    def test_tie_breaks_lexicographically(self, small_tagset):
        m = model_from(["x/NN y/VM", "x/VM y/NN"], small_tagset)
        assert tag_sentence(["x"], m, cfg("unigram")) == [("x", "NN")]

    def test_unknown_word_open_class_policy(self, small_tagset):
        m = model_from(["x/NN y/NN z/VM"], small_tagset)
        assert tag_sentence(["oov"], m, cfg("unigram")) == [("oov", "NN")]

    def test_unknown_word_single_tag_policy(self, small_tagset):
        m = model_from(["x/NN y/NN"], small_tagset)
        c = cfg("unigram", SmoothingConfig(unknown_policy="QC"))
        assert tag_sentence(["oov"], m, c) == [("oov", "QC")]

    def test_permutation_equivariance(self, small_tagset):
        m = model_from(["x/NN y/VM z/JJ", "x/NN w/QC"], small_tagset)
        fwd = tag_sentence(["x", "y", "z"], m, cfg("unigram"))
        rev = tag_sentence(["z", "y", "x"], m, cfg("unigram"))
        assert dict(fwd) == dict(rev)

    def test_empty_sentence(self, small_tagset):
        m = model_from(["x/NN"], small_tagset)
        with pytest.raises(EmptySentence):
            tag_sentence([], m, cfg("unigram"))


class TestDecoders:
    def test_single_path_bigram(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert tag_sentence(["a", "b"], m, cfg("bigram")) == [("a", "NN"), ("b", "VM")]

    def test_context_resolves_ambiguity(self, small_tagset):
        # frozen from the enumeration oracle
        m = model_from(["m/NN v/VM", "v/NN m/VM"], small_tagset)
        expected = [("m", "NN"), ("v", "VM")]
        assert brute_force_decode(["m", "v"], m, cfg("bigram")) == expected
        assert tag_sentence(["m", "v"], m, cfg("bigram")) == expected

    def test_single_path_trigram(self, small_tagset):
        m = model_from(["a/NN b/VM c/JJ"], small_tagset)
        expected = [("a", "NN"), ("b", "VM"), ("c", "JJ")]
        assert tag_sentence(["a", "b", "c"], m, cfg("trigram")) == expected

    def test_one_word_trigram(self, small_tagset):
        m = model_from(["a/NN b/VM c/JJ"], small_tagset)
        assert tag_sentence(["a"], m, cfg("trigram")) == [("a", "NN")]

    def test_single_path_hmm(self, small_tagset):
        m = model_from(["a/NN b/VM c/JJ"], small_tagset)
        expected = [("a", "NN"), ("b", "VM"), ("c", "JJ")]
        assert tag_sentence(["a", "b", "c"], m, cfg("hmm")) == expected

    @pytest.mark.parametrize("method", DP_METHODS)
    def test_length_one_sentences(self, method, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        out = tag_sentence(["a"], m, cfg(method))
        assert len(out) == 1

    @pytest.mark.parametrize("method", DP_METHODS)
    def test_determinism(self, method, small_tagset):
        m = model_from(["a/NN b/VM", "b/NN a/VM", "a/JJ b/QC"], small_tagset)
        first = tag_sentence(["a", "b", "a"], m, cfg(method))
        assert all(tag_sentence(["a", "b", "a"], m, cfg(method)) == first
                   for _ in range(3))

    @pytest.mark.parametrize("method", list(DP_METHODS) + ["unigram"])
    def test_count_scaling_invariance(self, method, small_tagset):
        lines = ["a/NN b/VM", "b/NN a/VM", "a/JJ c/QC"]
        m1 = model_from(lines, small_tagset)
        m4 = model_from(lines * 4, small_tagset)
        for words in (["a"], ["a", "b"], ["c", "a", "b"]):
            assert tag_sentence(words, m1, cfg(method)) == tag_sentence(words, m4, cfg(method))

    @pytest.mark.parametrize("method", DP_METHODS)
    def test_empty_sentence(self, method, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(EmptySentence):
            tag_sentence([], m, cfg(method))


class TestContextSensitivityFixture:
    """Word x is NN sentence-initially but VM after NN; only context-aware
    methods recover the held-out tagging."""

    def held_out(self, small_tagset):
        model = model_from(["x/NN u/VM"] * 3 + ["n/NN x/VM"] * 2, small_tagset)
        return model, ["n", "x"], ["NN", "VM"]

    def test_context_methods_recover(self, small_tagset):
        model, words, gold = self.held_out(small_tagset)
        for method in DP_METHODS:
            tagged = tag_sentence(words, model, cfg(method))
            assert [t for _, t in tagged] == gold

    def test_unigram_necessarily_errs(self, small_tagset):
        model, words, gold = self.held_out(small_tagset)
        tagged = tag_sentence(words, model, cfg("unigram"))
        predicted = [t for _, t in tagged]
        assert predicted != gold
        assert sum(p == g for p, g in zip(predicted, gold)) == 1


class TestScoreSequence:
    def test_hand_computed_bigram_score(self, small_tagset):
        # all five ratios are 1 on the single-path corpus, so log-score is 0
        m = model_from(["a/NN b/VM"], small_tagset)
        assert score_sequence(["a", "b"], ["NN", "VM"], m, cfg("bigram", RAW)) == 0.0

    def test_decoder_output_is_argmax(self, small_tagset):
        m = model_from(["a/NN b/VM", "b/NN a/JJ"], small_tagset)
        for method in DP_METHODS:
            c = cfg(method)
            tagged = tag_sentence(["a", "b"], m, c)
            best = score_sequence(["a", "b"], [t for _, t in tagged], m, c)
            oracle = brute_force_decode(["a", "b"], m, c)
            assert best == pytest.approx(
                score_sequence(["a", "b"], [t for _, t in oracle], m, c), abs=1e-9)

    def test_unigram_score_is_order_free(self, small_tagset):
        m = model_from(["a/NN b/VM", "b/NN a/VM"], small_tagset)
        c = cfg("unigram")
        s1 = score_sequence(["a", "b"], ["NN", "VM"], m, c)
        s2 = score_sequence(["b", "a"], ["NN", "VM"], m, c)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_length_mismatch(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(LengthMismatch):
            score_sequence(["a", "b"], ["NN"], m, cfg("bigram"))

    def test_unknown_tag(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(UnknownTag):
            score_sequence(["a"], ["ZZZ"], m, cfg("bigram"))

    def test_raw_alpha_can_reach_neg_inf(self, small_tagset):
        m = model_from(["a/NN b/VM"], small_tagset)
        assert score_sequence(["a", "b"], ["VM", "NN"], m, cfg("bigram", RAW)) == -math.inf


class TestBruteForce:
    def test_guard(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(InstanceTooLarge):
            brute_force_decode(["a"] * 9, m, cfg("bigram"))

    def test_empty(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(EmptySentence):
            brute_force_decode([], m, cfg("bigram"))


class TestOracleEquivalence:
    @pytest.mark.parametrize("method", DP_METHODS)
    def test_random_instances(self, method):
        rng = make_rng(42)
        c = cfg(method)
        for _ in range(40):
            model, _ = random_model(rng)
            words = random_sentence(rng)
            expected = brute_force_decode(words, model, c)
            got = tag_sentence(words, model, c)
            assert got == expected
            s_got = score_sequence(words, [t for _, t in got], model, c)
            s_exp = score_sequence(words, [t for _, t in expected], model, c)
            assert s_got == pytest.approx(s_exp, abs=1e-9)


class TestDecodeTrace:
    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_trace_max_equals_path_score(self, method, small_tagset):
        m = model_from(["a/NN b/VM", "b/NN a/JJ", "c/QC a/NN"], small_tagset)
        tagged, trace = decode_with_trace(["a", "b", "c"], m, cfg(method))
        assert len(trace.positions) == 3
        assert trace.path_score == pytest.approx(
            score_sequence(["a", "b", "c"], [t for _, t in tagged], m, cfg(method)),
            abs=1e-9)
        for pos in trace.positions:
            assert max(pos.values()) == pytest.approx(trace.path_score, abs=1e-9)


class TestTraceDecodeParity:
    """decode_with_trace runs the decoder's own dynamic program, so its tags,
    margins and path score agree with decoding and scoring at any length."""

    LENGTHS = (1, 2, 3, 8, 40, 200, 257)

    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_agrees_with_decoding(self, method):
        rng = make_rng(300)
        c = cfg(method)
        for _ in range(4):
            model, _ = random_model(rng)
            for n in self.LENGTHS:
                words = [random_sentence(rng, max_len=1)[0] for _ in range(n)]
                tagged, trace = decode_with_trace(words, model, c)
                assert tagged == tag_sentence(words, model, c)
                score = pytest.approx(trace.path_score, rel=1e-9, abs=0)
                assert score_sequence(words, [t for _, t in tagged], model, c) == score
                for (_, tag), pos in zip(tagged, trace.positions):
                    assert pos[tag] == score
                    assert max(pos.values()) == score



class TestTables:
    """The tables belong to (model, smoothing): built once, kept apart per
    smoothing, and freed with the model."""

    @pytest.mark.parametrize("method,table", [("unigram", None),
                                              ("bigram", "transition_tables"),
                                              ("hmm", "transition_tables"),
                                              ("trigram", "trigram_tables")])
    def test_builds_transition_tables_once(self, method, table, monkeypatch):
        calls = count_calls(monkeypatch, taggers, ("transition_tables", "trigram_tables"))
        model, _ = random_model(make_rng(5))
        tag_sentence(["a", "b", "c"], model, cfg(method))
        tag_sentence(["c", "oov1"], model, cfg(method))
        decode_with_trace(["a", "oov2", "b"], model, cfg(method))
        assert calls == ({table: 1} if table else {})

    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_alternating_smoothing_matches_fresh_models(self, method):
        rng = make_rng(77)
        for _ in range(10):
            model, corpus = random_model(rng)
            forced = SmoothingConfig(unknown_policy=model.tagset.sorted_labels()[-1])
            for _ in range(3):
                for smoothing in (SmoothingConfig(), RAW, forced):
                    words = random_sentence(rng, max_len=8, unknown_rate=0.3)
                    c = cfg(method, smoothing)
                    fresh = build_counts(corpus, model.tagset)
                    assert tag_sentence(words, model, c) == tag_sentence(words, fresh, c)

    def test_open_class_tags_given_as_a_set(self, small_tagset):
        # the tables are keyed by SmoothingConfig, so it must hash
        m = model_from(["x/NN y/VM", "x/JJ z/QC"], small_tagset)
        as_set = SmoothingConfig(open_class_tags={"QC", "VM"})
        frozen = SmoothingConfig(open_class_tags=frozenset({"QC", "VM"}))
        for method in ("unigram",) + DP_METHODS:
            words = ["x", "oov", "z"]
            assert (tag_sentence(words, m, cfg(method, as_set))
                    == tag_sentence(words, m, cfg(method, frozen)))

    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_freed_with_model(self, method):
        model, _ = random_model(make_rng(9))
        tag_sentence(["a", "oov0", "b"], model, cfg(method))
        decode_with_trace(["a", "b"], model, cfg(method))
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("method,kernel", [("unigram", None),
                                           ("bigram", "viterbi_bigram"),
                                           ("hmm", "viterbi_bigram"),
                                           ("trigram", "viterbi_trigram")])
def test_decoding_calls_the_order_kernel_once_per_sentence(method, kernel, monkeypatch):
    # the benchmark times the kernel layer under these two names
    calls = count_calls(monkeypatch, kernels, ("viterbi_bigram", "viterbi_trigram"))
    model, _ = random_model(make_rng(5))
    tag_sentence(["a", "b", "c"], model, cfg(method))
    tag_sentence(["c", "oov1"], model, cfg(method))
    assert calls == ({kernel: 2} if kernel else {})
