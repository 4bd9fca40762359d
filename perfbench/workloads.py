"""Seeded workload generators for the statpos benchmark.

Each workload is a pure function of (name, seed): the same seed writes
byte-identical input files.  The tagger under test only ever sees those
files (or the word lists read back from them).

Words are Devanagari-like syllable strings or short ASCII tokens.  None
contains whitespace or '/', none equals a sentinel spelling, and none starts
with ``count=``: the model-format defect for such words (ROADMAP item 4) is
covered by the test suite, not by this benchmark.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MARATHI_TAGS = [
    "NN", "NST", "NNP", "PRP", "DEM", "VM", "VAUX", "JJ", "RB", "PSP",
    "RP", "QF", "QC", "CC", "WQ", "QO", "INTF", "INJ", "NEG", "SYM",
    "XC", "RDP", "UNK",
]
# Open-class tags get Zipf vocabularies of these relative sizes; every other
# tag is closed-class with a few dozen words.
OPEN_CLASS_SHARE = {"NN": 0.32, "VM": 0.21, "NNP": 0.16, "JJ": 0.13,
                    "RB": 0.06, "XC": 0.05, "QC": 0.04, "UNK": 0.03}

CONSONANTS = "कखगघचजझटडणतथदधनपफबभमयरलवशषसह"
VOWEL_SIGNS = ["", "ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ", "ं"]

# The six-tag chain of the test suite's synthetic corpus (tests/synth.py),
# restated here so the benchmark does not depend on test code.
SYNTH_TAGS = ["JJ", "NN", "PSP", "QC", "RB", "VM"]
SYNTH_START = {"QC": 0.4, "NN": 0.3, "JJ": 0.2, "RB": 0.1}
SYNTH_TRANS = {
    "QC": {"JJ": 0.5, "NN": 0.5},
    "JJ": {"NN": 0.9, "JJ": 0.1},
    "NN": {"VM": 0.5, "PSP": 0.3, "NN": 0.2},
    "PSP": {"NN": 0.6, "VM": 0.4},
    "VM": {"RB": 0.5, "NN": 0.3, "JJ": 0.2},
    "RB": {"VM": 0.7, "NN": 0.3},
}
SYNTH_AMBIGUOUS = {"NN": "amb_nv", "VM": "amb_nv", "JJ": "amb_jr",
                   "RB": "amb_jr", "QC": "amb_qp", "PSP": "amb_qp"}


@dataclass(frozen=True)
class Params:
    """Generator parameters; recorded with every result."""

    chain: str                 # "marathi23" or "synth6"
    train_sentences: int
    train_len: tuple           # inclusive (min, max) training sentence length
    cli_lengths: tuple         # tag-input sentences that also form the CLI input
    more_lengths: tuple        # further tag-input sentences, library passes only
    vocab: int = 0             # marathi23: word types across all tags
    zipf_s: float = 0.0        # marathi23: Zipf exponent within a tag
    ambiguous_words: int = 0   # marathi23: words shared by two tags
    ambiguous_rate: float = 0.0
    oracle_lengths: tuple = () # synth6: short sentences checked by brute force


EVEN = tuple(range(4, 25, 2))
ODD = tuple(range(5, 26, 2))
DOCS = (300, 340, 380, 420, 460, 500)

WORKLOADS = {
    "marathi-short": (
        "paper's 23-tag setting with many short sentences, so fixed "
        "per-sentence costs such as table builds dominate",
        Params(chain="marathi23", train_sentences=3000, train_len=(4, 25),
               cli_lengths=EVEN, more_lengths=ODD + EVEN + ODD, vocab=10000, zipf_s=0.85, ambiguous_words=80,
               ambiguous_rate=0.12),
    ),
    "synth6-long": (
        "six-tag chain with documents of hundreds of tokens, so per-sentence "
        "table cost is amortised and emission plus the per-position DP dominate",
        Params(chain="synth6", train_sentences=3000, train_len=(4, 9),
               cli_lengths=DOCS, more_lengths=DOCS * 6,
               oracle_lengths=(4, 4, 5)),
    ),
}


@dataclass
class Workload:
    """Paths of the generated files plus the gold sentences behind them."""

    name: str
    seed: int
    params: Params
    why: str
    tagset_file: Path | None   # None: the default Marathi tagset
    train_file: Path
    tag_file: Path             # the CLI `tag` input: the first cli_lengths sentences
    one_word_file: Path        # raw input of the set-up runs
    tag_gold: list             # [(word, tag), ...] per tag-input sentence
    oracle_gold: list          # short sentences checked against brute force
    train_tokens: int
    input_hash: str

    def describe(self):
        d = asdict(self.params)
        return {"workload": self.name, "seed": self.seed, "why": self.why,
                "params": d, "input_sha256": self.input_hash,
                "train_tokens": self.train_tokens,
                "tag_sentences": len(self.tag_gold),
                "tag_tokens": sum(len(s) for s in self.tag_gold)}


# --- marathi23 chain ---------------------------------------------------------

class _Marathi:
    def __init__(self, rng, p):
        tags = MARATHI_TAGS
        T = len(tags)
        self.tags = tags
        # sparse chain: each tag has 3-6 successors; open-class tags are
        # likelier successors, as nouns and verbs dominate real text
        weight = np.array([4.0 if t in OPEN_CLASS_SHARE else 1.0 for t in tags])
        self.trans = np.zeros((T, T))
        for i in range(T):
            k = int(rng.integers(3, 7))
            succ = rng.choice(T, size=k, replace=False, p=weight / weight.sum())
            self.trans[i, succ] = rng.dirichlet(np.ones(k))
        starts = rng.choice(T, size=8, replace=False, p=weight / weight.sum())
        self.start = np.zeros(T)
        self.start[starts] = rng.dirichlet(np.ones(8))

        words = _devanagari_words(rng, p.vocab + p.ambiguous_words)
        closed = [t for t in tags if t not in OPEN_CLASS_SHARE]
        closed_size = 40
        open_total = p.vocab - closed_size * len(closed)
        self.vocab = []
        pos = 0
        for t in tags:
            n = closed_size if t in closed else int(open_total * OPEN_CLASS_SHARE[t])
            self.vocab.append(words[pos:pos + n])
            pos += n
        ranks = [np.arange(1, len(v) + 1, dtype=float) ** -p.zipf_s for v in self.vocab]
        self.word_p = [r / r.sum() for r in ranks]
        # each shared ambiguous word belongs to two distinct tags
        self.ambiguous = [[] for _ in tags]
        for w in words[pos:pos + p.ambiguous_words]:
            for i in rng.choice(T, size=2, replace=False):
                self.ambiguous[i].append(w)
        self.ambiguous_rate = p.ambiguous_rate

    def sentences(self, rng, lengths):
        T = len(self.tags)
        lengths = np.asarray(lengths)
        cum_trans = np.cumsum(self.trans, axis=1)
        cum_start = np.cumsum(self.start)
        # advance every sentence's chain one position at a time
        grid = np.zeros((len(lengths), int(lengths.max())), dtype=np.int64)
        u = rng.random(grid.shape)
        grid[:, 0] = np.minimum((u[:, :1] >= cum_start[None, :]).sum(axis=1), T - 1)
        for j in range(1, grid.shape[1]):
            rows = cum_trans[grid[:, j - 1]]
            grid[:, j] = np.minimum((u[:, j:j + 1] >= rows).sum(axis=1), T - 1)
        tag_ids = [grid[i, :n].tolist() for i, n in enumerate(lengths)]
        flat = np.fromiter((t for s in tag_ids for t in s), dtype=np.int64)
        words = np.empty(len(flat), dtype=object)
        amb_draw = rng.random(len(flat))
        for i in range(T):
            where = np.flatnonzero(flat == i)
            if not len(where):
                continue
            picks = rng.choice(len(self.vocab[i]), size=len(where), p=self.word_p[i])
            words[where] = [self.vocab[i][j] for j in picks]
            amb = self.ambiguous[i]
            if amb:
                hit = where[amb_draw[where] < self.ambiguous_rate]
                words[hit] = [amb[j] for j in rng.integers(0, len(amb), size=len(hit))]
        out, k = [], 0
        for seq in tag_ids:
            out.append([(words[k + j], self.tags[t]) for j, t in enumerate(seq)])
            k += len(seq)
        return out


def _devanagari_words(rng, count):
    """`count` distinct words of 2-4 consonant+vowel-sign syllables."""
    syllables = [c + v for c in CONSONANTS for v in VOWEL_SIGNS]
    seen = set()
    out = []
    while len(out) < count:
        m = count - len(out) + 64
        sizes = rng.integers(2, 5, size=m).tolist()
        picks = rng.integers(0, len(syllables), size=(m, 4)).tolist()
        for n, row in zip(sizes, picks):
            w = "".join(syllables[i] for i in row[:n])
            if w not in seen and len(out) < count:
                seen.add(w)
                out.append(w)
    return out


# --- synth6 chain ------------------------------------------------------------

def _synth_draw(rng, dist):
    labels = sorted(dist)
    probs = np.array([dist[k] for k in labels])
    return labels[rng.choice(len(labels), p=probs / probs.sum())]


def _synth_emit(rng, tag):
    if rng.random() < 0.3:
        return SYNTH_AMBIGUOUS[tag]
    return f"{tag.lower()}{rng.integers(0, 3)}"


def _synth_sentences(rng, lengths):
    out = []
    for n in lengths:
        tag = _synth_draw(rng, SYNTH_START)
        s = [(_synth_emit(rng, tag), tag)]
        for _ in range(n - 1):
            tag = _synth_draw(rng, SYNTH_TRANS[tag])
            s.append((_synth_emit(rng, tag), tag))
        out.append(s)
    return out


# --- files -------------------------------------------------------------------

def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _tagged(sentences):
    return [" ".join(f"{w}/{t}" for w, t in s) for s in sentences]


def _raw(sentences):
    return [" ".join(w for w, _ in s) for s in sentences]


def generate(name, seed, outdir):
    """Write the workload's input files into `outdir` and return them."""
    why, p = WORKLOADS[name]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    train_lengths = rng.integers(p.train_len[0], p.train_len[1] + 1, size=p.train_sentences)
    # the tag input keeps fixed lengths in a seeded order, so every seed does
    # the same amount of tagging work
    tag_lengths = rng.permutation(p.cli_lengths).tolist() + rng.permutation(p.more_lengths).tolist()

    if p.chain == "marathi23":
        chain = _Marathi(rng, p)
        train = chain.sentences(rng, train_lengths)
        tag_gold = chain.sentences(rng, tag_lengths)
        oracle = []
        tagset_file = None
    else:
        train = _synth_sentences(rng, train_lengths)
        tag_gold = _synth_sentences(rng, tag_lengths)
        oracle = _synth_sentences(rng, p.oracle_lengths)
        tagset_file = outdir / "tags.txt"
        _write_lines(tagset_file, SYNTH_TAGS)

    files = {
        "train.txt": _tagged(train),
        "tag.txt": _raw(tag_gold[:len(p.cli_lengths)]),
        "one_word.txt": [tag_gold[0][0][0]],
    }
    digest = hashlib.sha256(json.dumps(asdict(p), sort_keys=True).encode())
    for fname, lines in files.items():
        _write_lines(outdir / fname, lines)
        digest.update((outdir / fname).read_bytes())
    for s in tag_gold + oracle:
        digest.update(("\n" + " ".join(f"{w}/{t}" for w, t in s)).encode())
    return Workload(
        name=name, seed=seed, params=p, why=why, tagset_file=tagset_file,
        train_file=outdir / "train.txt", tag_file=outdir / "tag.txt",
        one_word_file=outdir / "one_word.txt", tag_gold=tag_gold,
        oracle_gold=oracle, train_tokens=sum(len(s) for s in train),
        input_hash=digest.hexdigest(),
    )
