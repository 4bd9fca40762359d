"""Correctness gate, run outside every timed region.

A tag operation fails when it raises, when its output words differ from its
input, when its tags differ from the reference recorded for this workload,
seed and method, or when an independent check built only on
``score_sequence`` (the scalar ``p_*`` functions) rejects it:

- the decoded score is at least the gold tags' score, within a relative
  tolerance;
- no single-position change improves the score (on a seeded sample);
- on the short six-tag oracle sentences, the output equals
  ``brute_force_decode``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

METHODS = ("unigram", "bigram", "hmm", "trigram")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Scores of long sentences drift from score_sequence by about 1e-13
# relative; distinct paths differ by far more.
REL_TOL = 1e-9
POSITIONS_PER_SENTENCE = 6
# the single-position check covers leading sentences up to this many tokens
SWAP_TOKENS = 400


def tags_digest(tagged_sentences):
    text = "\n".join(" ".join(f"{w}/{t}" for w, t in s) for s in tagged_sentences)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload, seed):
    """Recorded {"inputs": hash, method: digest} or None when unrecorded."""
    try:
        table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


class Ledger:
    """Distinct operations attempted, each counted once and failed when any
    of its repeats failed, so one deterministic failure always shows and the
    count does not grow with the number of timed repeats."""

    def __init__(self):
        self.ops = {}               # operation -> first failure reason or None

    def record(self, op, ok=True, reason=""):
        if not ok and self.ops.get(op) is None:
            self.ops[op] = reason
        else:
            self.ops.setdefault(op, None)

    def fail(self, op, reason):
        self.record(op, False, reason)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failures(self):
        return [(op, reason) for op, reason in self.ops.items() if reason is not None]


class Gate:
    """Tags every tag-input sentence once per method and checks each result.

    `expected[method][i]` is then the output every timed operation on
    sentence i must reproduce; the timed calls of a sentence and method are
    the same operation as its gate call.
    """

    def __init__(self, statpos, model, workload, reference, ledger):
        self.sp = statpos
        self.model = model
        self.wl = workload
        self.ledger = ledger
        self.fail = ledger.fail
        self.expected = {}
        self.reference = reference  # load_reference(...) or None

    def run(self):
        sp, wl = self.sp, self.wl
        rng = np.random.default_rng([wl.seed, 7])
        if self.reference is not None:
            self.ledger.record("reference", self.reference.get("inputs") == wl.input_hash[:16],
                               "generated inputs differ from the recorded reference inputs")
        for method in METHODS:
            config = sp.taggers.TaggerConfig(method=method)
            outputs = [self._tag(method, config, gold, i, rng) for i, gold in enumerate(wl.tag_gold)]
            self.expected[method] = outputs
            if self.reference is not None and all(o is not None for o in outputs):
                # one operation per method: the digest cannot say which sentence moved
                self.ledger.record(f"{method} reference", tags_digest(outputs) == self.reference.get(method),
                                   "tags of some sentence differ from the recorded reference")
            for j, gold in enumerate(wl.oracle_gold):
                self._oracle(method, config, gold, j)
        return self

    def _tag(self, method, config, gold, i, rng):
        words = [w for w, _ in gold]
        op = f"{method}#{i}"
        self.ledger.record(op)
        try:
            out = self.sp.taggers.tag_sentence(words, self.model, config)
            swap = sum(len(s) for s in self.wl.tag_gold[:i]) < SWAP_TOKENS
            reason = self._independent(out, gold, config, rng if swap else None)
        except Exception as e:  # any raise is a failed operation
            self.fail(op, f"raised {type(e).__name__}: {e}")
            return None
        if reason:
            self.fail(op, reason)
        return out

    def _independent(self, out, gold, config, rng):
        score_sequence = self.sp.taggers.score_sequence
        words = [w for w, _ in gold]
        if [w for w, _ in out] != words:
            return "output words differ from input"
        tags = [t for _, t in out]
        score = score_sequence(words, tags, self.model, config)
        gold_score = score_sequence(words, [t for _, t in gold], self.model, config)
        if score < gold_score - REL_TOL * abs(gold_score):
            return f"score {score!r} below gold score {gold_score!r}"
        if rng is None:
            return None
        k = min(POSITIONS_PER_SENTENCE, len(words))
        for pos in rng.choice(len(words), size=k, replace=False):
            for alt in self.model.tagset.sorted_labels():
                if alt == tags[pos]:
                    continue
                trial = tags[:pos] + [alt] + tags[pos + 1:]
                if score_sequence(words, trial, self.model, config) > score + REL_TOL * abs(score):
                    return f"changing position {pos} to {alt} improves the score"
        return None

    def _oracle(self, method, config, gold, j):
        sp = self.sp
        words = [w for w, _ in gold]
        op = f"{method}/oracle#{j}"
        self.ledger.record(op)
        try:
            out = sp.taggers.tag_sentence(words, self.model, config)
            best = sp.taggers.brute_force_decode(words, self.model, config)
        except Exception as e:  # any raise is a failed operation
            self.fail(op, f"raised {type(e).__name__}: {e}")
            return
        if out != best:
            self.fail(op, "differs from brute_force_decode")

    def check_output(self, method, index, out):
        """One timed call's output against the gate's result; True if equal."""
        ok = out == self.expected[method][index]
        self.ledger.record(f"{method}#{index}", ok, "a timed call's output differs from the checked result")
        return ok

    def record(self):
        """This run's reference entry."""
        entry = {"inputs": self.wl.input_hash[:16]}
        entry.update({m: tags_digest(self.expected[m]) for m in METHODS})
        return entry
