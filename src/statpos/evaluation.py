"""Token-level evaluation: accuracy, confusion matrix, per-tag metrics.

Accuracy is correctly tagged tokens over all tokens, times 100, reported to
two decimals with round-half-up.  Precision for a tag that is never predicted
(and recall for a tag absent from the gold data) is undefined and reported as
None, not zero.
"""

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

from .errors import LengthMismatch, SentenceCountMismatch, WordMismatch


@dataclass
class TagMetrics:
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass
class EvaluationReport:
    total_tokens: int
    correct_tokens: int
    confusion: dict          # (gold_tag, predicted_tag) -> count
    per_tag: dict            # tag -> TagMetrics

    @property
    def accuracy_percent(self):
        if self.total_tokens == 0:
            return 0.0
        return 100.0 * self.correct_tokens / self.total_tokens


def accuracy_percent(correct, total):
    """The evaluation formula on bare counts."""
    return 100.0 * correct / total


def round_percent(value, places=2):
    """Round-half-up to the given number of decimal places, as a string."""
    q = Decimal(1).scaleb(-places)
    return str(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def evaluate(gold, predicted):
    """Compare two corpora sentence by sentence and aggregate token metrics."""
    if len(gold) != len(predicted):
        raise SentenceCountMismatch(
            f"{len(gold)} gold sentences vs {len(predicted)} predicted")
    confusion = Counter()
    correct = 0
    total = 0
    for idx, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            raise LengthMismatch(idx)
        for pos, ((gw, gt), (pw, pt)) in enumerate(zip(g, p)):
            if gw != pw:
                raise WordMismatch(idx, pos)
            confusion[(gt, pt)] += 1
            total += 1
            if gt == pt:
                correct += 1

    tags = sorted({t for pair in confusion for t in pair})
    per_tag = {}
    for t in tags:
        gold_n = sum(c for (g, _), c in confusion.items() if g == t)
        pred_n = sum(c for (_, p), c in confusion.items() if p == t)
        hit = confusion.get((t, t), 0)
        precision = hit / pred_n if pred_n else None
        recall = hit / gold_n if gold_n else None
        if precision is None or recall is None:
            f1 = None
        elif precision + recall == 0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        per_tag[t] = TagMetrics(precision, recall, f1)
    return EvaluationReport(total, correct, dict(confusion), per_tag)


def _fmt(value):
    return "undefined" if value is None else f"{value:.4f}"


def format_report(report, style="plain"):
    if style == "plain":
        lines = [
            f"tokens: {report.total_tokens}",
            f"correct: {report.correct_tokens}",
            f"accuracy: {round_percent(report.accuracy_percent)}",
            "",
            "per-tag (precision / recall / f1):",
        ]
        for tag, m in sorted(report.per_tag.items()):
            lines.append(f"  {tag}\t{_fmt(m.precision)} / {_fmt(m.recall)} / {_fmt(m.f1)}")
        errors = [(c, g, p) for (g, p), c in report.confusion.items() if g != p]
        if errors:
            lines.append("")
            lines.append("top confusions (gold -> predicted):")
            for c, g, p in sorted(errors, reverse=True)[:10]:
                lines.append(f"  {g} -> {p}\t{c}")
        return "\n".join(lines) + "\n"
    if style == "tsv":
        lines = [
            f"total_tokens\t{report.total_tokens}",
            f"correct_tokens\t{report.correct_tokens}",
            f"accuracy_percent\t{round_percent(report.accuracy_percent)}",
        ]
        for (g, p), c in sorted(report.confusion.items()):
            lines.append(f"confusion\t{g}\t{p}\t{c}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report style {style!r}")

