"""In-memory span tracer that wraps statpos's public functions from outside.

Wrappers replace module attributes, so calls made through the module (as
``cli.main`` and ``taggers.tag_sentence`` make them) are recorded.  Each
span is a list [name, start, end, parent, sentence_id, work]; `work` holds a
per-call measure such as kernel operations or the words looked up.
"""

import contextlib
import time

NAME, START, END, PARENT, SID, WORK = range(6)


def _bigram_ops(args):
    """viterbi_bigram(emit, ...): n positions x T x T transitions."""
    n, T = args[0].shape
    return n * T * T


def _trigram_ops(args):
    """viterbi_trigram(emit, ...): n positions x (T+1) x T x T transitions."""
    n, T = args[0].shape
    return n * (T + 1) * T * T


def targets(sp):
    """(owner, attribute, span name, work function) for every wrapped call;
    `sp` holds the statpos modules by name."""
    return [
        (sp.cli, "main", "cli.main", None),
        (sp.corpus, "load_corpus", "corpus.load_corpus", None),
        (sp.corpus, "tokenize_raw_line", "corpus.tokenize_raw_line", None),
        (sp.corpus, "serialize_tagged_sentence", "corpus.serialize_tagged_sentence", None),
        (sp.counts, "build_counts", "counts.build_counts", None),
        (sp.counts, "save_model", "counts.save_model", None),
        (sp.counts, "load_model", "counts.load_model", None),
        (sp.tagset.Tagset, "sorted_labels", "tagset.sorted_labels", None),
        (sp.taggers, "tag_sentence", "taggers.tag_sentence", None),
        (sp.taggers, "tag_unigram", "taggers.tag_unigram", None),
        (sp.taggers, "transition_tables", "taggers.transition_tables", None),
        (sp.taggers, "trigram_tables", "taggers.trigram_tables", None),
        (sp.taggers, "emission_table", "taggers.emission_table", lambda a: a[2]),
        (sp.taggers, "decode_with_trace", "taggers.decode_with_trace", None),
        (sp.kernels, "viterbi_bigram", "kernels.viterbi_bigram", _bigram_ops),
        (sp.kernels, "viterbi_trigram", "kernels.viterbi_trigram", _trigram_ops),
        (sp.evaluation, "evaluate", "evaluation.evaluate", None),
    ]


class Tracer:
    def __init__(self, sp):
        self.spans = []
        self.stack = []
        self.sid = 0
        self.absent = []
        self._wrapped = []
        for owner, attr, name, work in targets(sp):
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
            else:
                self._wrapped.append((owner, attr, fn, self._wrapper(fn, name, work)))

    def _wrapper(self, fn, name, work):
        new_sentence = name == "corpus.tokenize_raw_line"

        def wrapper(*args, **kwargs):
            if new_sentence:
                self.sid += 1
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.sid,
                   work(args) if work else None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._wrapped:
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def root(self, name, work=None):
        """A benchmark-level span; `work` tags it (the round number)."""
        rec = [name, 0.0, 0.0, -1, self.sid, work]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()


def analyse(spans):
    """Per span: its root's index and its self time (duration minus the time
    its direct children cover).  Parents always precede children."""
    n = len(spans)
    roots = [0] * n
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        roots[i] = i if p < 0 else roots[p]
        if p >= 0:
            child_time[p] += s[END] - s[START]
    self_time = [s[END] - s[START] - child_time[i] for i, s in enumerate(spans)]
    return roots, self_time
