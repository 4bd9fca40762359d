import pytest

from statpos import evaluate, format_report, round_percent
from statpos.evaluation import accuracy_percent
from statpos.errors import LengthMismatch, SentenceCountMismatch, WordMismatch

from conftest import corpus_from
from randgen import make_rng, random_corpus


def sent(pairs):
    return [tuple(p.split("/")) for p in pairs.split()]


class TestAccuracyArithmetic:
    # published count pairs over the 25744-token test set; the percentages
    # printed alongside them in the source write-up are partly inconsistent
    # with the counts (see test_acceptance), so these assert the true math
    @pytest.mark.parametrize("correct,expected", [
        (19921, "77.38"),
        (23249, "90.31"),
        (23546, "91.46"),
        (24156, "93.83"),
    ])
    def test_count_pairs(self, correct, expected):
        assert round_percent(accuracy_percent(correct, 25744)) == expected

    def test_round_half_up(self):
        assert round_percent(77.385) == "77.39"
        assert round_percent(77.384999) == "77.38"
        assert round_percent(100.0) == "100.00"


class TestEvaluate:
    def test_identity(self):
        gold = [sent("a/NN b/VM"), sent("c/JJ")]
        report = evaluate(gold, gold)
        assert report.correct_tokens == report.total_tokens == 3
        assert report.accuracy_percent == 100.0
        assert all(g == p for (g, p) in report.confusion)

    def test_fully_disjoint(self):
        gold = [sent("a/NN b/NN c/NN d/NN")]
        pred = [sent("a/VM b/VM c/VM d/VM")]
        report = evaluate(gold, pred)
        assert report.correct_tokens == 0
        assert report.accuracy_percent == 0.0
        assert report.confusion == {("NN", "VM"): 4}

    def test_empty_corpus(self):
        report = evaluate([], [])
        assert report.total_tokens == report.correct_tokens == 0
        assert report.accuracy_percent == 0.0

    def test_three_of_four(self):
        gold = [sent("a/NN b/VM c/JJ d/QC")]
        pred = [sent("a/NN b/VM c/JJ d/NN")]
        report = evaluate(gold, pred)
        assert round_percent(report.accuracy_percent) == "75.00"

    def test_confusion_totals(self):
        gold = [sent("a/NN b/VM"), sent("a/NN c/JJ d/NN")]
        pred = [sent("a/NN b/NN"), sent("a/VM c/JJ d/NN")]
        report = evaluate(gold, pred)
        assert sum(report.confusion.values()) == report.total_tokens
        diag = sum(c for (g, p), c in report.confusion.items() if g == p)
        assert diag == report.correct_tokens

    def test_precision_undefined_when_never_predicted(self):
        gold = [sent("a/NN b/QC")]
        pred = [sent("a/NN b/NN")]
        report = evaluate(gold, pred)
        assert report.per_tag["QC"].precision is None
        assert report.per_tag["QC"].recall == 0.0

    def test_recall_undefined_when_absent_from_gold(self):
        gold = [sent("a/NN")]
        pred = [sent("a/VM")]
        report = evaluate(gold, pred)
        assert report.per_tag["VM"].recall is None

    def test_micro_recall_equals_accuracy(self):
        gold = [sent("a/NN b/VM c/NN"), sent("d/JJ e/NN")]
        pred = [sent("a/NN b/NN c/NN"), sent("d/NN e/NN")]
        report = evaluate(gold, pred)
        micro = sum(report.confusion.get((t, t), 0) for t in {"NN", "VM", "JJ"})
        assert micro / report.total_tokens == pytest.approx(report.accuracy_percent / 100)

    def test_sentence_count_mismatch(self):
        with pytest.raises(SentenceCountMismatch):
            evaluate([sent("a/NN")], [])

    def test_length_mismatch_reports_index(self):
        with pytest.raises(LengthMismatch) as exc:
            evaluate([sent("a/NN"), sent("b/VM c/JJ")],
                     [sent("a/NN"), sent("b/VM")])
        assert exc.value.index == 1

    def test_word_mismatch_reports_position(self):
        with pytest.raises(WordMismatch) as exc:
            evaluate([sent("a/NN b/VM")], [sent("a/NN c/VM")])
        assert exc.value.position == 1


class TestAggregationProperties:
    def test_permutation_invariance(self, small_tagset):
        rng = make_rng(5)
        gold, tagset = random_corpus(rng, max_sentences=8)
        pred = [[(w, sorted(tagset)[0]) for w, _ in s] for s in gold]
        fwd = evaluate(gold, pred)
        rev = evaluate(gold[::-1], pred[::-1])
        assert fwd.correct_tokens == rev.correct_tokens
        assert fwd.confusion == rev.confusion

    def test_concatenation_consistency(self):
        a_gold = [sent("a/NN b/VM")]
        a_pred = [sent("a/NN b/NN")]
        b_gold = [sent("c/JJ d/QC e/NN")]
        b_pred = [sent("c/JJ d/QC e/VM")]
        whole = evaluate(a_gold + b_gold, a_pred + b_pred)
        part_a = evaluate(a_gold, a_pred)
        part_b = evaluate(b_gold, b_pred)
        assert whole.correct_tokens == part_a.correct_tokens + part_b.correct_tokens
        assert whole.total_tokens == part_a.total_tokens + part_b.total_tokens


class TestFormatReport:
    def test_plain_contains_accuracy(self):
        gold = [sent("a/NN b/VM c/JJ d/QC")]
        pred = [sent("a/NN b/VM c/JJ d/NN")]
        text = format_report(evaluate(gold, pred), style="plain")
        assert "accuracy: 75.00" in text

    def test_plain_identity(self):
        gold = [sent("a/NN")]
        text = format_report(evaluate(gold, gold), style="plain")
        assert "accuracy: 100.00" in text

    def test_tsv_round_trip(self):
        gold = [sent("a/NN b/VM"), sent("c/JJ d/QC")]
        pred = [sent("a/NN b/NN"), sent("c/JJ d/JJ")]
        assert format_report(evaluate(gold, pred), style="tsv") == (
            "total_tokens\t4\n"
            "correct_tokens\t2\n"
            "accuracy_percent\t50.00\n"
            "confusion\tJJ\tJJ\t1\n"
            "confusion\tNN\tNN\t1\n"
            "confusion\tQC\tJJ\t1\n"
            "confusion\tVM\tNN\t1\n")

    def test_unknown_style(self):
        gold = [sent("a/NN")]
        with pytest.raises(ValueError):
            format_report(evaluate(gold, gold), style="xml")
