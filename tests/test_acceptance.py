"""Acceptance suite: one test (or parametrized group) per criterion.

Criterion 1 applies the accuracy formula, 100 * correct / total, to the
published count pairs and asserts the figure those counts give, rounded half
up to two places; the published figure stays in each case id.  Three
published figures differ from their own counts in the last digit, and are
recorded in PUBLISHED_ERRATA:

    19921/25744 = 77.3811...  -> 77.38, published 77.39
    23249/25744 = 90.3084...  -> 90.31, published 90.30
    24156/25744 = 93.8316...  -> 93.83, published 93.82

Only 91.46 (23546/25744 = 91.4621...) agrees.  No total from 25,600 to
25,899 and no rounding rule (half up, half even, truncation, ceiling)
reproduces all four published figures from their counts, so the counts,
being the formula's inputs, decide the expected figure.
"""

import random
from collections import Counter

import pytest

from statpos import (
    SmoothingConfig,
    TaggerConfig,
    Tagset,
    brute_force_decode,
    build_counts,
    evaluate,
    load_model,
    p_bigram_transition,
    p_tag_given_word,
    p_trigram_transition,
    p_word_given_tag,
    parse_tagged_line,
    round_percent,
    save_model,
    score_sequence,
    serialize_tagged_sentence,
    tag_sentence,
)
from statpos.evaluation import accuracy_percent
from statpos.tagset import END, START

from randgen import make_rng, random_model, random_sentence
from synth import generate_corpus

RAW = SmoothingConfig(alpha=0.0, lambda3=1.0, lambda2=0.0, lambda1=0.0)


# --- criterion 1: accuracy-formula fixtures ----------------------------------

# Published figure -> figure its own count pair gives (see module docstring).
PUBLISHED_ERRATA = {"77.39": "77.38", "90.30": "90.31", "93.82": "93.83"}


@pytest.mark.parametrize("correct,total,published", [
    (19921, 25744, "77.39"),
    (23249, 25744, "90.30"),
    (23546, 25744, "91.46"),
    (24156, 25744, "93.82"),
])
def test_criterion_1_accuracy_fixtures(correct, total, published):
    # 100 * correct / total rounded half up to hundredths, in integers only.
    h = (20000 * correct + total) // (2 * total)
    expected = f"{h // 100}.{h % 100:02d}"
    assert round_percent(accuracy_percent(correct, total)) == expected
    assert PUBLISHED_ERRATA.get(published, published) == expected


# --- criterion 2: equation exactness -----------------------------------------

def _recount(corpus):
    """Independent re-count, sharing no code with the model builder."""
    wt, wc, tc, bi, tri = Counter(), Counter(), Counter(), Counter(), Counter()
    for sent in corpus:
        for w, t in sent:
            wt[(w, t)] += 1
            wc[w] += 1
            tc[t] += 1
        seq = [START, START] + [t for _, t in sent] + [END]
        for a, b in zip(seq[1:], seq[2:]):
            bi[(a, b)] += 1
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            tri[(a, b, c)] += 1
    return wt, wc, tc, bi, tri, len(corpus)


def test_criterion_2_equation_exactness():
    checked = 0
    for seed in range(250):
        rng = make_rng(7000 + seed)
        model, corpus = random_model(rng)
        wt, wc, tc, bi, tri, nsent = _recount(corpus)
        labels = sorted(model.tagset)
        word = rng.choice(sorted(wc))
        t = rng.choice(labels)
        t1 = rng.choice(labels + [START])
        t2 = rng.choice(labels + [START])

        assert p_tag_given_word(model, word, t) == pytest.approx(
            wt[(word, t)] / wc[word], abs=1e-12)
        assert p_word_given_tag(model, word, t, RAW) == pytest.approx(
            wt[(word, t)] / tc[t] if tc[t] else 0.0, abs=1e-12)
        prev_total = nsent if t1 == START else tc[t1]
        assert p_bigram_transition(model, t1, t, RAW) == pytest.approx(
            bi[(t1, t)] / prev_total if prev_total else 0.0, abs=1e-12)
        ctx = nsent if (t2, t1) == (START, START) else bi[(t2, t1)]
        assert p_trigram_transition(model, t2, t1, t, RAW) == pytest.approx(
            tri[(t2, t1, t)] / ctx if ctx else 0.0, abs=1e-12)
        checked += 4
    assert checked >= 1000


# --- criterion 3: oracle equivalence -----------------------------------------

@pytest.mark.parametrize("method", ("bigram", "trigram", "hmm"))
def test_criterion_3_oracle_equivalence(method):
    rng = make_rng(31337)
    config = TaggerConfig(method=method)
    for _ in range(200):
        model, _ = random_model(rng)
        words = random_sentence(rng)
        expected = brute_force_decode(words, model, config)
        got = tag_sentence(words, model, config)
        s_exp = score_sequence(words, [t for _, t in expected], model, config)
        s_got = score_sequence(words, [t for _, t in got], model, config)
        assert s_got == pytest.approx(s_exp, abs=1e-9)
        assert got == expected


# --- criterion 4: normalization ----------------------------------------------

def test_criterion_4_normalization():
    for seed in range(100):
        rng = make_rng(9000 + seed)
        model, _ = random_model(rng)
        alpha = rng.choice([0.001, 0.01, 0.5, 1.0])
        cfg = SmoothingConfig(alpha=alpha)
        for t in model.tagset:
            total = sum(p_word_given_tag(model, w, t, cfg) for w in model.vocabulary)
            assert total == pytest.approx(1.0, abs=1e-9)
        for prev in list(model.tagset) + [START]:
            total = sum(p_bigram_transition(model, prev, t, cfg) for t in model.tagset)
            total += p_bigram_transition(model, prev, END, cfg)
            assert total == pytest.approx(1.0, abs=1e-9)


# --- criterion 5: context-sensitivity fixture --------------------------------

def test_criterion_5_context_sensitivity():
    tagset = Tagset(["JJ", "NN", "QC", "RB", "VM"])
    train = [parse_tagged_line(l, tagset)
             for l in ["x/NN u/VM"] * 3 + ["n/NN x/VM"] * 2]
    model = build_counts(train, tagset)
    held_out = [parse_tagged_line("n/NN x/VM", tagset)]
    words = [w for w, _ in held_out[0]]

    for method in ("bigram", "trigram", "hmm"):
        pred = [tag_sentence(words, model, TaggerConfig(method=method))]
        assert evaluate(held_out, pred).accuracy_percent == 100.0

    uni = [tag_sentence(words, model, TaggerConfig(method="unigram"))]
    assert evaluate(held_out, uni).accuracy_percent < 100.0


# --- criterion 6: round-trip suite -------------------------------------------

def _random_word(rng):
    alphabet = "ab/cd/e"
    while True:
        w = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        if w not in ("<S>", "</S>"):
            return w


def test_criterion_6_round_trips(tmp_path):
    tagset = Tagset(["JJ", "NN", "QC", "VM"])
    labels = sorted(tagset)
    rng = random.Random(60_000)
    for i in range(100):
        corpus = [
            [(_random_word(rng), rng.choice(labels))
             for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 8))
        ]
        for sentence in corpus:
            line = serialize_tagged_sentence(sentence)
            assert parse_tagged_line(line, tagset) == sentence
        model = build_counts(corpus, tagset)
        path = tmp_path / f"model_{i}.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.word_tag_count == model.word_tag_count
        assert loaded.tag_count == model.tag_count
        assert loaded.tag_bigram_count == model.tag_bigram_count
        assert loaded.tag_trigram_count == model.tag_trigram_count
        assert loaded.total_tokens == model.total_tokens


# --- criterion 7: end-to-end smoke -------------------------------------------

def test_criterion_7_end_to_end():
    train, test, tagset = generate_corpus(20260824)
    model = build_counts(train, tagset)
    accuracy = {}
    for method in ("unigram", "bigram", "trigram", "hmm"):
        config = TaggerConfig(method=method)
        predicted = []
        for gold in test:
            words = [w for w, _ in gold]
            tagged = tag_sentence(words, model, config)
            assert [w for w, _ in tagged] == words
            predicted.append(tagged)
        accuracy[method] = evaluate(test, predicted).accuracy_percent
    assert accuracy["hmm"] > accuracy["unigram"]
    assert accuracy["trigram"] > accuracy["unigram"]
