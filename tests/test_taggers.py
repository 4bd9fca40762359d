import gc
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from statpos import (
    SmoothingConfig,
    TaggerConfig,
    Tagset,
    brute_force_decode,
    build_counts,
    decode_with_trace,
    default_tagset,
    p_bigram_transition,
    p_trigram_transition,
    score_sequence,
    tag_corpus,
    tag_sentence,
)
from statpos import counts, kernels, taggers
from statpos.errors import EmptySentence, InstanceTooLarge, LengthMismatch, UnknownTag
from statpos.tagset import END, START

from conftest import model_from
from randgen import WORD_POOL, make_rng, random_model, random_sentence

DP_METHODS = ("bigram", "trigram", "hmm")
METHODS = ("unigram",) + DP_METHODS
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

    @pytest.mark.parametrize("words", [["zzz"], ["a", "zzz"], ["zzz", "b", "zzz"]],
                             ids=["alone", "after-a-known-word", "twice"])
    def test_unknown_word_without_open_class_counts(self, words):
        # unsmoothed, and no open-class tag was ever seen: an unknown word has
        # probability 0 under every tag, so every sequence scores -inf, all
        # tie and the smallest wins
        m = model_from(["a/PSP b/CC"], Tagset(["CC", "NN", "PSP"]))
        c = cfg("unigram", RAW)
        expected = [(w, "CC") for w in words]
        assert brute_force_decode(words, m, c) == expected
        assert tag_sentence(words, m, c) == expected
        # NaN margins would warn, and any warning fails a test (pyproject.toml)
        tagged, trace = decode_with_trace(words, m, c)
        assert tagged == expected
        assert trace.path_score == -math.inf
        assert all(s == -math.inf for pos in trace.positions for s in pos.values())

    def test_permutation_equivariance(self, small_tagset):
        m = model_from(["x/NN y/VM z/JJ", "x/NN w/QC"], small_tagset)
        fwd = tag_sentence(["x", "y", "z"], m, cfg("unigram"))
        rev = tag_sentence(["z", "y", "x"], m, cfg("unigram"))
        assert dict(fwd) == dict(rev)

    def test_empty_sentence(self, small_tagset):
        m = model_from(["x/NN"], small_tagset)
        with pytest.raises(EmptySentence):
            tag_sentence([], m, cfg("unigram"))
        with pytest.raises(EmptySentence):
            decode_with_trace([], m, cfg("unigram"))


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
        with pytest.raises(EmptySentence):
            decode_with_trace([], m, cfg(method))

    @pytest.mark.parametrize("method", DP_METHODS)
    def test_every_path_impossible(self, method):
        # unsmoothed, "b" is only VM and VM never opens a sentence, so every
        # path scores -inf; all tie and the smallest sequence wins
        m = model_from(["a/NN b/VM b/VM", "c/JJ b/VM"], Tagset(["JJ", "NN", "VM"]))
        c = cfg(method, RAW)
        expected = [("b", "JJ"), ("b", "JJ")]
        assert brute_force_decode(["b", "b"], m, c) == expected
        assert tag_sentence(["b", "b"], m, c) == expected
        assert decode_with_trace(["b", "b"], m, c)[0] == expected


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

    @pytest.mark.parametrize("method", METHODS)
    def test_empty(self, method, small_tagset):
        # the decoders and the oracle refuse an empty sentence, and so does scoring
        m = model_from(["a/NN b/VM"], small_tagset)
        with pytest.raises(EmptySentence):
            score_sequence([], [], m, cfg(method))

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

    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_unknown_policy_outside_the_tagset(self, method):
        # the oracle rejects what tag_sentence rejects
        m = model_from(["a/JJ b/NN", "b/VM"], Tagset(["JJ", "NN", "VM"]))
        with pytest.raises(UnknownTag, match="QQ"):
            score_sequence(["zzz", "b"], ["NN", "VM"], m,
                           cfg(method, SmoothingConfig(unknown_policy="QQ")))


class TestBruteForce:
    def test_guard(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(InstanceTooLarge):
            brute_force_decode(["a"] * 9, m, cfg("bigram"))

    def test_empty(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        with pytest.raises(EmptySentence):
            brute_force_decode([], m, cfg("bigram"))

    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_unknown_policy_outside_the_tagset(self, method):
        m = model_from(["a/JJ b/NN", "b/VM"], Tagset(["JJ", "NN", "VM"]))
        with pytest.raises(UnknownTag, match="QQ"):
            brute_force_decode(["zzz", "b"], m, cfg(method, SmoothingConfig(unknown_policy="QQ")))


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



def scalar_tables(model, smoothing):
    """Both orders' transition tables filled cell by cell from the p_*
    reference functions: the oracle for the count-array build."""
    labels = model.tagset.sorted_labels()

    def logs(p, *axes):
        cells = [taggers._log(p(model, *key, smoothing)) for key in itertools.product(*axes)]
        return np.array(cells).reshape([len(axis) for axis in axes])

    contexts = labels + [START]
    first = (logs(p_bigram_transition, [START], labels)[0],
             logs(p_bigram_transition, labels, labels),
             logs(p_bigram_transition, labels, [END])[:, 0])
    second = (logs(p_trigram_transition, [START], [START], labels)[0, 0],
              logs(p_trigram_transition, contexts, labels, labels),
              logs(p_trigram_transition, contexts, labels, [END])[..., 0])
    return first, second


class TestTables:
    """The tables belong to (model, smoothing): built once, kept apart per
    smoothing, and freed with the model.  The transition tables equal the
    p_* functions' values bit for bit."""

    SMOOTHINGS = (SmoothingConfig(), RAW,
                  SmoothingConfig(alpha=0.37, lambda3=0.2, lambda2=0.5, lambda1=0.3))

    def test_transition_tables_equal_the_reference(self):
        rng = make_rng(13)
        models = [random_model(rng)[0] for _ in range(200)]
        tagset = default_tagset()
        for _ in range(2):
            # the paper's tagset, most of whose tags and contexts go unseen
            corpus = [[(rng.choice(WORD_POOL), rng.choice(tagset.sorted_labels()))
                       for _ in range(rng.randint(1, 12))] for _ in range(40)]
            models.append(build_counts(corpus, tagset))
        seen = Counter()
        for model in models:
            labels = model.tagset.sorted_labels()
            seen["zero-count tag"] += any(t not in model.tag_count for t in labels)
            seen["unseen context"] += any((a, b) not in model.tag_bigram_count
                                          for a in labels for b in labels)
            forced = SmoothingConfig(unknown_policy=labels[-1])
            for smoothing in self.SMOOTHINGS + (forced,):
                first, second = scalar_tables(model, smoothing)
                got_labels, start2, (rows, _, state_row), end = taggers.trigram_tables(
                    model, smoothing)
                # the rows and the per-row end, expanded to the pair states
                tri = rows[state_row].reshape(len(labels) + 1, len(labels), -1)
                tri_end = end[state_row].reshape(len(labels) + 1, -1)
                for got, expected in ((taggers.transition_tables(model, smoothing), first),
                                      ((got_labels, start2, tri, tri_end), second)):
                    assert got[0] == labels
                    for table, reference in zip(got[1:], expected, strict=True):
                        assert np.array_equal(table, reference)
        assert seen["zero-count tag"] > 10 and seen["unseen context"] > 10

    def test_trigram_rows_expand_to_the_dense_table(self):
        # one backoff row per tag plus one row per context (a, b) that
        # occurs; every pair state reads a row of its own current tag and
        # the END entry of that row, so a row fixes its states' scores
        rng = make_rng(17)
        for _ in range(100):
            model, _ = random_model(rng)
            labels = model.tagset.sorted_labels()
            T = len(labels)
            contexts = [START] + labels
            occurring = sum(n > 0 for (a, b), n in model.tag_bigram_count.items()
                            if a in contexts and b in labels)
            forced = SmoothingConfig(unknown_policy=labels[-1])
            for smoothing in self.SMOOTHINGS + (forced,):
                _, p = taggers._transition_probs(model, smoothing, second_order=True)
                dense = taggers._log_table(p[:T + 1, :T, :T]).reshape(-1, T)
                _, _, (rows, ctx, state_row), end = taggers.trigram_tables(model, smoothing)
                assert rows.shape == (T + occurring, T)
                assert end.shape == (T + occurring,)
                assert np.array_equal(rows[state_row], dense)
                assert np.array_equal(ctx[state_row], np.tile(np.arange(T), T + 1))
                assert np.array_equal(end[state_row],
                                      taggers._log_table(p[:T + 1, :T, T + 1]).reshape(-1))

    def test_tables_make_no_scalar_transition_calls(self, monkeypatch):
        names = ("p_bigram_transition", "p_trigram_transition")
        calls = [count_calls(monkeypatch, owner, names) for owner in (taggers, counts)]
        model, _ = random_model(make_rng(5))
        for smoothing in self.SMOOTHINGS:
            taggers.transition_tables(model, smoothing)
            taggers.trigram_tables(model, smoothing)
            for method in DP_METHODS:
                tag_sentence(["a", "oov1", "c"], model, cfg(method, smoothing))
        assert calls == [{}, {}]

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

    def test_bigram_and_hmm_share_one_build(self, monkeypatch):
        calls = count_calls(monkeypatch, taggers, ("transition_tables",))
        model, _ = random_model(make_rng(5))
        tag_sentence(["a", "b", "c"], model, cfg("bigram"))
        tag_sentence(["c", "oov1"], model, cfg("hmm"))
        decode_with_trace(["a", "oov2"], model, cfg("hmm"))
        assert calls == {"transition_tables": 1}

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

    def test_hmm_doubles_the_transitions_once(self, monkeypatch):
        seen = []
        viterbi = kernels.viterbi_bigram

        def recording(emit, start, trans, end, lengths):
            seen.append(trans)
            return viterbi(emit, start, trans, end, lengths)

        monkeypatch.setattr(kernels, "viterbi_bigram", recording)
        model, _ = random_model(make_rng(5))
        tag_sentence(["a", "b", "c"], model, cfg("hmm"))
        tag_sentence(["c", "oov1"], model, cfg("hmm"))
        assert len(seen) == 2 and seen[0] is seen[1]
        first = taggers.transition_tables(model, SmoothingConfig())[2]
        assert np.array_equal(seen[0], 2.0 * first)

    @pytest.mark.parametrize("method", ("unigram",) + DP_METHODS)
    def test_unknown_policy_outside_the_tagset(self, method, monkeypatch):
        calls = count_calls(monkeypatch, taggers, ("check_unknown_policy",))
        m = model_from(["a/JJ b/NN", "b/VM"], Tagset(["JJ", "NN", "VM"]))
        c = cfg(method, SmoothingConfig(unknown_policy="QQ"))
        for decode in (tag_sentence, decode_with_trace):
            with pytest.raises(UnknownTag, match="QQ"):
                decode(["zzz", "b"], m, c)
        assert m._tables == {}
        # a policy that is a tag is checked once per (model, smoothing)
        c = cfg(method, SmoothingConfig(unknown_policy="VM"))
        tag_sentence(["zzz", "b"], m, c)
        decode_with_trace(["b", "zzz"], m, c)
        assert calls == {"check_unknown_policy": 3}

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


class TestRows:
    """The rows of known words come from count arrays, bit for bit the
    values of the scalar reference; the unknown-word row from the reference
    itself; a warm call only reads the cache."""

    SMOOTHINGS = TestTables.SMOOTHINGS + (SmoothingConfig(alpha=1e-9),)
    KINDS = (taggers._log_emission, taggers._unigram_lexical_prob)

    def test_rows_equal_the_reference(self):
        rng = make_rng(43)
        models = [random_model(rng)[0] for _ in range(100)]
        tagset = default_tagset()
        # the paper's tagset, most of whose tags go unseen
        models.append(build_counts([[(w, rng.choice(tagset.sorted_labels())) for w in WORD_POOL]
                                    for _ in range(6)], tagset))
        words = WORD_POOL + ["oov0", "oov1"]
        oov = 0
        for model in models:
            labels = model.tagset.sorted_labels()
            oov += sum(w not in model.vocabulary for w in WORD_POOL)
            forced = SmoothingConfig(unknown_policy=labels[-1])
            for smoothing in self.SMOOTHINGS + (forced,):
                for prob in self.KINDS:
                    got = taggers._rows(model, smoothing, {"labels": labels}, words, prob)
                    expected = np.array([[prob(model, smoothing, w, t) for t in labels]
                                         for w in words])
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert oov > 20

    def test_known_words_make_no_scalar_emission_calls(self, monkeypatch):
        calls = count_calls(monkeypatch, taggers, ("p_word_given_tag", "p_tag_given_word"))
        model, _ = random_model(make_rng(5))
        known = [w for w in WORD_POOL if w in model.vocabulary]
        for method in METHODS:
            for smoothing in self.SMOOTHINGS:
                c = cfg(method, smoothing)
                tag_sentence(known, model, c)
                tag_corpus([known[::-1], known[:1]], model, c)
                decode_with_trace(known, model, c)
        assert calls == {}
        # one row serves every unknown word
        tag_corpus([["oov1", known[0]], ["oov2"]], model, cfg("hmm"))
        tag_sentence(["oov3"], model, cfg("bigram"))
        assert calls == {"p_word_given_tag": len(model.tagset)}

    @staticmethod
    def reference(model, smoothing, words, prob):
        labels = model.tagset.sorted_labels()
        return np.array([[prob(model, smoothing, w, t) for t in labels] for w in words])

    def test_one_fill_for_filled_new_and_unknown_words(self, monkeypatch):
        calls = count_calls(monkeypatch, taggers, ("_fill_rows",))
        rng = make_rng(29)
        mixed = 0
        for _ in range(30):
            model, _ = random_model(rng)
            known = [w for w in WORD_POOL if w in model.vocabulary]
            if len(known) < 2:
                continue
            mixed += 1
            for smoothing in self.SMOOTHINGS:
                for prob in self.KINDS:
                    tables = {"labels": model.tagset.sorted_labels()}
                    taggers._rows(model, smoothing, tables, known[:1], prob)
                    calls.clear()
                    # a filled word, known words not seen yet, unknown words
                    words = ["oov1", known[0], *known[1:], "oov2", known[0], known[-1]]
                    got = taggers._rows(model, smoothing, tables, words, prob)
                    assert calls == {"_fill_rows": 1}
                    expected = self.reference(model, smoothing, words, prob)
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert mixed > 10

    def test_first_call_holds_only_unknown_words(self):
        model, corpus = random_model(make_rng(5))
        known = [w for w in WORD_POOL if w in model.vocabulary]
        for smoothing in self.SMOOTHINGS:
            for prob in self.KINDS:
                tables = {"labels": model.tagset.sorted_labels()}
                for words in (["oov1", "oov2", "oov1"], ["oov3", *known]):
                    got = taggers._rows(model, smoothing, tables, words, prob)
                    expected = self.reference(model, smoothing, words, prob)
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        for method in METHODS:
            # a fresh model, whose table cache is empty
            fresh = build_counts(corpus, model.tagset)
            sentence = ["oov1", "oov2", "oov1"]
            assert tag_sentence(sentence, fresh, cfg(method)) == brute_force_decode(
                sentence, model, cfg(method))

    @pytest.mark.parametrize("method", METHODS)
    def test_unknown_words_stay_out_of_the_index(self, method):
        model, _ = random_model(make_rng(5))
        known = [w for w in WORD_POOL if w in model.vocabulary]
        for i in range(0, 1000, 10):
            # 1,000 distinct unknown words, among the known ones
            tag_corpus([[f"oov{j}", known[j % len(known)]] for j in range(i, i + 10)],
                       model, cfg(method))
        tables = model._tables[SmoothingConfig()]
        kinds = [prob for prob in self.KINDS if prob in tables]
        assert len(kinds) == 1
        for prob in kinds:
            _, index = tables[prob]
            assert len(index) <= len(model.vocabulary) + 1
            assert set(index) <= set(model.vocabulary) | {None}

    def test_a_fill_across_a_growth_step_keeps_the_filled_rows(self):
        rng = make_rng(31)
        tagset = Tagset(["JJ", "NN", "VM"])
        words = [f"w{i}" for i in range(60)]
        model = build_counts([[(w, rng.choice(tagset.sorted_labels())) for w in words[i:i + 6]]
                              for i in range(0, 60, 6)], tagset)
        for smoothing in self.SMOOTHINGS:
            for prob in self.KINDS:
                tables = {"labels": tagset.sorted_labels()}
                taggers._rows(model, smoothing, tables, ["oov1", *words[:5]], prob)
                matrix, index = tables[prob]
                filled = matrix[:len(index)].copy()
                # more new rows than the matrix has free, in one fill
                new = words[5:5 + len(matrix) + 1]
                call = [*new, "oov2", *words[:5]]
                got = taggers._rows(model, smoothing, tables, call, prob)
                grown, index = tables[prob]
                assert len(grown) > len(matrix) and len(index) == len(filled) + len(new)
                assert grown[:len(filled)].tobytes() == filled.tobytes()
                expected = self.reference(model, smoothing, call, prob)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("method", METHODS)
    def test_warm_calls_only_read_the_cache(self, method, monkeypatch):
        calls = count_calls(monkeypatch, taggers, ("_fill_rows",))
        model, _ = random_model(make_rng(5))
        sentences = [["a", "oov1", "b"], ["c", "a"], ["oov2"]]
        tag_corpus(sentences, model, cfg(method))
        assert calls == {"_fill_rows": 1}
        tag_corpus(sentences[::-1], model, cfg(method))
        for s in sentences:
            tag_sentence(s, model, cfg(method))
        assert calls == {"_fill_rows": 1}
        tag_sentence(["d", "a"], model, cfg(method))
        assert calls == {"_fill_rows": 2 if "d" in model.vocabulary else 1}


class TestTagCorpus:
    """tag_corpus returns what tag_sentence returns for each sentence, tie-breaks
    included, however the sentences fall into batches."""

    METHODS = ("unigram",) + DP_METHODS

    @staticmethod
    def corpus(rng, lengths):
        return [[random_sentence(rng, max_len=1)[0] for _ in range(n)] for n in lengths]

    @pytest.mark.parametrize("method", METHODS)
    def test_mixed_lengths(self, method):
        # lengths 1..500 with repeats, in no order by length
        rng = make_rng(17)
        lengths = [3, 500, 1, 17, 17, 250, 1, 499, 3, 3, 64, 2, 500, 120]
        for _ in range(3):
            model, _ = random_model(rng)
            sentences = self.corpus(rng, lengths)
            assert tag_corpus(sentences, model, cfg(method)) == [
                tag_sentence(s, model, cfg(method)) for s in sentences]

    @pytest.mark.parametrize("method", METHODS)
    def test_ties(self, method, monkeypatch):
        # logs rounded to 0.5, so that distinct paths tie exactly
        monkeypatch.setattr(taggers, "_log",
                            lambda p: round(math.log(p) * 2) / 2 if p > 0 else -math.inf)
        rng = make_rng(23)
        for _ in range(6):
            model, _ = random_model(rng)
            sentences = self.corpus(rng, [rng.randint(1, 40) for _ in range(12)])
            assert tag_corpus(sentences, model, cfg(method)) == [
                tag_sentence(s, model, cfg(method)) for s in sentences]

    @pytest.mark.parametrize("method", METHODS)
    def test_every_path_impossible_inside_a_batch(self, method):
        # unsmoothed, every path of "b b" scores -inf and decodes to all
        # zeros, whatever the sentences around it
        m = model_from(["a/NN b/VM b/VM", "c/JJ b/VM"], Tagset(["JJ", "NN", "VM"]))
        c = cfg(method, RAW)
        sentences = [["a", "b", "b"], ["b", "b"], ["c", "b"], ["a", "b", "b", "b"], ["a"]]
        tagged = tag_corpus(sentences, m, c)
        assert tagged == [tag_sentence(s, m, c) for s in sentences]
        if method != "unigram":
            assert tagged[1] == [("b", "JJ"), ("b", "JJ")]
            assert tagged[0] == [("a", "NN"), ("b", "VM"), ("b", "VM")]

    def test_unigram_impossible_word_zeroes_only_its_sentence(self):
        # unsmoothed, an unknown word is impossible under every tag when no
        # open-class tag occurs
        m = model_from(["a/PSP b/CC", "b/PSP"], Tagset(["CC", "PSP"]))
        c = cfg("unigram", RAW)
        sentences = [["a", "zzz"], ["a"], ["b", "a", "a"], ["zzz"], ["a", "a", "zzz", "a"]]
        tagged = tag_corpus(sentences, m, c)
        assert tagged == [tag_sentence(s, m, c) for s in sentences]
        assert tagged[:2] == [[("a", "CC"), ("zzz", "CC")], [("a", "PSP")]]
        assert tagged[2] == [("b", "CC"), ("a", "PSP"), ("a", "PSP")]

    @pytest.mark.parametrize("cells", [1, 40, 300, 5000])
    @pytest.mark.parametrize("method", DP_METHODS)
    def test_small_batches(self, method, cells, monkeypatch):
        # a small cap splits the corpus into batches mid-way
        monkeypatch.setattr(kernels, "BATCH_CELLS", cells)
        rng = make_rng(31)
        model, _ = random_model(rng)
        sentences = self.corpus(rng, [5, 1, 30, 7, 7, 2, 60, 30, 1, 12])
        assert tag_corpus(sentences, model, cfg(method)) == [
            tag_sentence(s, model, cfg(method)) for s in sentences]

    def test_empty(self, small_tagset):
        m = model_from(["a/NN"], small_tagset)
        assert tag_corpus([], m, cfg("hmm")) == []
        with pytest.raises(EmptySentence):
            tag_corpus([["a"], []], m, cfg("hmm"))

    @pytest.mark.parametrize("method", DP_METHODS)
    def test_one_named_kernel_call_takes_every_row(self, method, monkeypatch):
        # the benchmark's kernel spans read the (N, T) rows of the call's words
        seen = []
        name = "viterbi_trigram" if method == "trigram" else "viterbi_bigram"
        viterbi = getattr(kernels, name)

        def recording(emit, start, trans, end, lengths):
            seen.append((emit, lengths))
            return viterbi(emit, start, trans, end, lengths)

        monkeypatch.setattr(kernels, name, recording)
        calls = count_calls(monkeypatch, kernels, ("viterbi_bigram", "viterbi_trigram"))
        model, _ = random_model(make_rng(5))
        sentences = [["c", "oov1"], ["a", "b", "c"], ["b"]]
        tag_corpus(sentences, model, cfg(method))
        assert calls == {name: 1}
        (emit, lengths), = seen
        assert lengths == [2, 3, 1]
        words = [w for s in sentences for w in s]
        rows = taggers._rows(model, SmoothingConfig(), {"labels": model.tagset.sorted_labels()},
                             words, taggers._log_emission)
        assert np.array_equal(emit, rows)


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
    tag_corpus([["b", "a"]], model, cfg(method))
    assert calls == ({kernel: 3} if kernel else {})
