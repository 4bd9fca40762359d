"""statpos benchmark: one workload, one seed, one closed loop with one caller.

    python3 perfbench/run.py --workload marathi-short --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics; with --trace 1 it repeats
the same work traced and untraced and reports per-layer metrics.  The last
line of standard output is the JSON result; the lines before it list every
metric with its unit and sample count, then the run's context (inputs hash,
generator parameters, environment, gate failures).

The benchmark measures statpos from outside: it imports the package from
this checkout's `src`, drives `cli.main` and `taggers.tag_sentence`, and
wraps public functions at module attribute level for the traced run.  All
work runs in this process and its set-up child processes, one at a time.
"""

import os

# one thread everywhere, and the numpy kernels even where numba exists
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["STATPOS_NO_NUMBA"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

METHODS = checks.METHODS
MIN_ROUNDS = 3
TICKS = 12

# Runs per round of `train` and of each method's CLI `tag`, and library
# sweeps per round over the tag input, fixed per workload.  A timing metric
# is the fastest of MIN_ROUNDS rounds' worth of these samples, picked evenly
# over the run: the same number of draws on every commit, however many
# rounds a faster program fits in.
SCHEDULE = {
    "marathi-short": {"train": 4,
                      "cli": {"unigram": 24, "bigram": 24, "hmm": 24, "trigram": 4},
                      "lib": {"unigram": 36, "bigram": 12, "hmm": 12, "trigram": 3}},
    "synth6-long": {"train": 12,
                    "cli": {"unigram": 12, "bigram": 12, "hmm": 12, "trigram": 12},
                    "lib": {"unigram": 12, "bigram": 4, "hmm": 4, "trigram": 4}},
}

SETUP_CODE = "import sys; from statpos.cli import main; sys.exit(main(sys.argv[1:]))"

NUMBA_NOTE = ("numba comparison unmeasured: this benchmark runs the numpy kernels "
              "only (STATPOS_NO_NUMBA=1)")


def import_statpos():
    """Import statpos from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import statpos
    if Path(statpos.__file__).resolve().parent != SRC / "statpos":
        raise ImportError(f"statpos imported from {statpos.__file__}, not from {SRC}")
    from statpos import cli, corpus, counts, evaluation, kernels, tagset, taggers
    return types.SimpleNamespace(cli=cli, corpus=corpus, counts=counts, evaluation=evaluation,
                                 kernels=kernels, tagset=tagset, taggers=taggers)


def calibrate():
    """Fixed pure-Python plus numpy work, in ms; a host-phase diagnostic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    a = np.arange(40000, dtype=np.float64)
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 1.0)
    return (time.perf_counter() - t0) * 1e3


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def fastest(samples, k):
    """Fastest of k samples at evenly spaced positions of the time-ordered
    `samples` (k >= 2), so that the draws span the whole run."""
    n = len(samples)
    if n <= k:
        return min(samples)
    return min(samples[j * (n - 1) // (k - 1)] for j in range(k))


def read_tagged(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            out.append([tuple(tok.rsplit("/", 1)) for tok in line.split()])
    return out


class Bench:
    def __init__(self, sp, wl, workdir, seconds):
        self.sp = sp
        self.wl = wl
        self.dir = workdir
        self.seconds = seconds
        self.model_file = workdir / "model.txt"
        self.cli_gold = wl.tag_gold[:len(wl.params.cli_lengths)]
        self.cli_tokens = sum(len(s) for s in self.cli_gold)
        self.ledger = checks.Ledger()
        self.calib = []

    # --- operations -----------------------------------------------------------

    def train(self, model_path):
        """`statpos train` through cli.main; returns seconds."""
        argv = ["train", "--corpus", str(self.wl.train_file), "--model", str(model_path)]
        if self.wl.tagset_file:
            argv += ["--tagset", str(self.wl.tagset_file)]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self._main(argv)
        dt = time.perf_counter() - t0
        self.ledger.record("train", code == 0 and f"tokens: {self.wl.train_tokens}\n" in out.getvalue(),
                 f"exit {code}, output {out.getvalue()!r}")
        return dt

    def _main(self, argv):
        """cli.main's exit code; a raise counts as exit code None."""
        try:
            return self.sp.cli.main(argv)
        except Exception as e:  # a raise is a failed operation
            print(f"cli.main {argv[0]} raised {type(e).__name__}: {e}", file=sys.stderr)
            return None

    def cli_tag(self, method):
        """`statpos tag` file to file through cli.main; returns seconds."""
        dest = self.dir / f"tagged-{method}.txt"
        argv = ["tag", "--model", str(self.model_file), "--method", method,
                "--input", str(self.wl.tag_file), "--output", str(dest)]
        t0 = time.perf_counter()
        code = self._main(argv)
        dt = time.perf_counter() - t0
        got = read_tagged(dest) if code == 0 else None
        self.ledger.record(f"cli tag {method}",
                           got == self.gate.expected[method][:len(self.cli_gold)],
                           f"exit {code}" if code != 0 else "output differs from the checked result")
        return dt

    def setup(self, method):
        """A fresh interpreter tagging one word; returns (seconds, peak RSS MB)."""
        dest = self.dir / f"one-{method}.txt"
        argv = [sys.executable, "-c", SETUP_CODE, "tag", "--model", str(self.model_file),
                "--method", method, "--input", str(self.wl.one_word_file),
                "--output", str(dest)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env)
        _, status, usage = os.wait4(pid, 0)
        dt = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        ok = code == 0 and read_tagged(dest) == [self.one_word[method]]
        self.ledger.record(f"setup {method}", ok, f"exit {code}")
        return dt, usage.ru_maxrss / 1024.0

    def lib_tag(self, method, index, sentence, config):
        """One library tag_sentence call; returns (seconds, output)."""
        words = [w for w, _ in sentence]
        t0 = time.perf_counter()
        try:
            out = self.sp.taggers.tag_sentence(words, self.model, config)
        except Exception as e:  # a raise is a failed operation
            out = e
        dt = time.perf_counter() - t0
        self.gate.check_output(method, index, out)
        return dt, out

    # --- phases ---------------------------------------------------------------

    def prepare(self, reference):
        """Train, load, and run the correctness gate against `reference`."""
        self.train(self.model_file)
        self.model = self.sp.counts.load_model(self.model_file)
        self.gate = checks.Gate(self.sp, self.model, self.wl, reference, self.ledger).run()
        word = [self.wl.tag_gold[0][0][0]]
        self.one_word = {}
        for m in METHODS:
            try:
                self.one_word[m] = self.sp.taggers.tag_sentence(
                    word, self.model, self.sp.taggers.TaggerConfig(method=m))
                self.ledger.record(f"one word {m}")
            except Exception as e:  # a raise is a failed operation
                self.ledger.record(f"one word {m}", False, f"raised {type(e).__name__}: {e}")
                self.one_word[m] = None
        self.configs = {m: self.sp.taggers.TaggerConfig(method=m) for m in METHODS}

    def rounds(self, body):
        """Run body(r) at least MIN_ROUNDS times, and more while another
        round of the mean length still ends within --seconds."""
        t0 = time.perf_counter()
        r = 0
        while True:
            gc.collect()
            self.calib.append(calibrate())
            body(r)
            r += 1
            elapsed = time.perf_counter() - t0
            if r >= MIN_ROUNDS and elapsed * (r + 1) / r > self.seconds:
                return r

    def end_to_end(self):
        plan = SCHEDULE[self.wl.name]
        setup_runs = {m: [] for m in METHODS}
        train_s = []
        tag_s = {m: [] for m in METHODS}
        # calls[m][i]: latencies of sentence i under method m, in time order
        calls = {m: [[] for _ in self.wl.tag_gold] for m in METHODS}
        round_model = self.dir / "round-model.txt"
        reference_model = self.model_file.read_bytes()

        def train_op(tick):
            train_s.append(self.train(round_model))
            self.ledger.record("train output",
                               round_model.exists() and round_model.read_bytes() == reference_model,
                               "model file differs from the first training run")

        def lib_op(m, tick):
            # sentence i is tagged at tick i % TICKS, once per sweep
            part = list(enumerate(self.wl.tag_gold))[tick::TICKS]
            for _ in range(plan["lib"][m]):
                for i, s in part:
                    calls[m][i].append(self.lib_tag(m, i, s, self.configs[m])[0] * 1e3)

        def ticks(k):
            return [j * TICKS // k for j in range(k)]

        # (ticks of a round, operation), a tick listed once per run of the
        # operation on it: the counts are fixed per workload, so every
        # commit draws the same samples per round
        ops = [([i * TICKS // len(METHODS)],
                lambda tick, m=m: setup_runs[m].append(self.setup(m)))
               for i, m in enumerate(METHODS)]
        ops.append((ticks(plan["train"]), train_op))
        for m in METHODS:
            ops.append((ticks(plan["cli"][m]), lambda tick, m=m: tag_s[m].append(self.cli_tag(m))))
        for m in METHODS:
            ops.append((list(range(TICKS)), lambda tick, m=m: lib_op(m, tick)))

        def body(r):
            for tick in range(TICKS):
                for at, op in ops:
                    for _ in range(at.count(tick)):
                        op(tick)

        n = self.rounds(body)
        setup_s, setup_rss = [], []
        for runs in zip(*(setup_runs[m] for m in METHODS)):
            setup_s.append(sum(t for t, _ in runs))
            setup_rss.append(max(rss for _, rss in runs))
        self.samples = {"setup_s": setup_s, "setup_rss_mb": setup_rss, "train_s": train_s,
                        "tag_s": tag_s, "sentence_ms": calls}
        med = statistics.median

        def of(k, total):
            return f"fastest of {k} evenly spaced among {total}"

        k = MIN_ROUNDS * plan["train"]
        metrics = {
            "setup_s": (med(setup_s), "s", f"median of {n} rounds x {len(METHODS)} processes"),
            "setup_rss_mb": (med(setup_rss), "MB", f"median of {n} rounds"),
            "train_tok_per_s": (self.wl.train_tokens / fastest(train_s, k), "tok/s",
                                f"{of(k, len(train_s))} runs"),
        }
        for m in METHODS:
            k = MIN_ROUNDS * plan["cli"][m]
            metrics[f"tag_tok_per_s.{m}"] = (self.cli_tokens / fastest(tag_s[m], k), "tok/s",
                                             f"{of(k, len(tag_s[m]))} runs")
        for m in METHODS:
            k = MIN_ROUNDS * plan["lib"][m]
            per_sentence = [fastest(c, k) for c in calls[m]]
            which = f"{len(per_sentence)} sentences, each the {of(k, len(calls[m][0]))} calls"
            metrics[f"sentence_ms_p50.{m}"] = (med(per_sentence), "ms", which)
            value, pct = tail(per_sentence)
            metrics[f"sentence_ms_tail.{m}"] = (value, "ms", f"p{pct:.1f} of {which}")
        return metrics

    def derived(self):
        """Counts that describe the tag input against the trained model."""
        words = [w for s in self.wl.tag_gold for w, _ in s]
        return {
            "tokens": len(words),
            "sentences": len(self.wl.tag_gold),
            "T": len(self.model.tagset),
            "oov_rate": sum(w not in self.model.vocabulary for w in words) / len(words),
        }

    # --- traced run -----------------------------------------------------------

    def traced(self):
        tracer = tracing.Tracer(self.sp)
        wall = {True: [], False: []}

        def work(r, traced):
            root = tracer.root if traced else (lambda *a: contextlib.nullcontext())
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                with root("train", r):
                    self.train(self.dir / "round-model.txt")
                for m in METHODS:
                    with root(f"cli_tag:{m}", r):
                        self.cli_tag(m)
                sentences = list(enumerate(self.cli_gold))
                predicted = {}
                for m in METHODS:
                    predicted[m] = []
                    for i, s in sentences:
                        tracer.sid += 1
                        with root(f"lib:{m}", r):
                            predicted[m].append(self.lib_tag(m, i, s, self.configs[m])[1])
                for m in METHODS:
                    i, s = min(sentences, key=lambda c: len(c[1]))
                    with root(f"probe:{m}", r):
                        self._probe(m, i, s)
                with root("eval", r):
                    self._evaluate([s for _, s in sentences], predicted["hmm"])
            finally:
                wall[traced].append(time.perf_counter() - t0)
                if traced:
                    tracer.uninstall()

        def body(r):
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                work(r, traced)

        n = self.rounds(body)
        overhead = statistics.median(t / u for t, u in zip(wall[True], wall[False])) - 1.0
        return tracer, n, overhead

    def _probe(self, method, index, sentence):
        words = [w for w, _ in sentence]
        try:
            tagged, tr = self.sp.taggers.decode_with_trace(words, self.model, self.configs[method])
        except Exception as e:  # a raise is a failed operation
            self.ledger.record(f"probe {method}", False, f"raised {type(e).__name__}: {e}")
            return
        best = max(max(p.values()) for p in tr.positions)
        ok = tagged == self.gate.expected[method][index] and (
            abs(best - tr.path_score) <= checks.REL_TOL * abs(tr.path_score))
        self.ledger.record(f"probe {method}", ok, "trace disagrees with decoding")

    def _evaluate(self, gold, predicted):
        try:
            report = self.sp.evaluation.evaluate(gold, predicted)
        except Exception as e:  # a raise is a failed operation
            self.ledger.record("eval", False, f"raised {type(e).__name__}: {e}")
            return
        self.ledger.record("eval", report.total_tokens == sum(len(s) for s in gold), "token count")


def layer_metrics(bench, tracer, rounds, overhead):
    """Per-layer metrics from the traced rounds' spans."""
    spans = tracer.spans
    roots, self_time = tracing.analyse(spans)
    N, S, E, SID, WORK = (tracing.NAME, tracing.START, tracing.END, tracing.SID,
                          tracing.WORK)
    per_round = {}            # (root kind, span name) -> {round: [inclusive, self, calls]}
    sentences = {}            # root kind -> {sid}
    kernel_ops = {"kernels.viterbi_bigram": 0, "kernels.viterbi_trigram": 0}
    emission_words = {}       # (root kind, round) -> words looked up in that pass
    for i, s in enumerate(spans):
        root = spans[roots[i]]
        kind, r = root[N], root[WORK]
        cell = per_round.setdefault((kind, s[N]), {}).setdefault(r, [0.0, 0.0, 0])
        cell[0] += s[E] - s[S]
        cell[1] += self_time[i]
        cell[2] += 1
        if roots[i] == i and kind.startswith("lib:"):
            sentences.setdefault(kind, set()).add(s[SID])
        if kind.startswith("lib:"):
            if s[N] in kernel_ops:
                kernel_ops[s[N]] += s[WORK]
            elif s[N] == "taggers.emission_table":
                emission_words.setdefault((kind, r), []).extend(s[WORK])

    def med(kinds, name, field=0):
        """Median over rounds of the summed inclusive (0) or self (1) time."""
        totals = {}
        for kind in kinds:
            for r, cell in per_round.get((kind, name), {}).items():
                totals[r] = totals.get(r, 0.0) + cell[field]
        return statistics.median(totals.values()) if totals else 0.0

    def total(kinds, name, field):
        return sum(cell[field] for kind in kinds
                   for cell in per_round.get((kind, name), {}).values())

    lib = [f"lib:{m}" for m in METHODS]
    first = ["lib:bigram", "lib:hmm"]
    cli = [f"cli_tag:{m}" for m in METHODS]
    probe = [f"probe:{m}" for m in METHODS]
    n_sent = {k: len(v) for k, v in sentences.items()}
    lib_tokens = bench.cli_tokens * rounds * len(METHODS)

    def per_sentence(kinds, name):
        n = sum(n_sent.get(k, 0) for k in kinds)
        return total(kinds, name, 2) / n if n else 0.0

    def ns_per_op(name):
        t = total(lib, name, 0)
        return t / kernel_ops[name] * 1e9 if kernel_ops[name] else 0.0

    def share(part_kinds, part, whole_kinds, whole):
        w = total(whole_kinds, whole, 0)
        return total(part_kinds, part, 0) / w if w else 0.0

    train_total = total(["train"], "cli.main", 0)
    train_parts = sum(total(["train"], n, 0) for n in
                      ("corpus.load_corpus", "counts.build_counts", "counts.save_model"))
    vocab = bench.model.vocabulary

    m = {}
    m["corpus.load_corpus_s"] = (med(["train"], "corpus.load_corpus"), "s")
    m["corpus.io_s"] = (med(cli, "corpus.tokenize_raw_line", 1)
                        + med(cli, "corpus.serialize_tagged_sentence", 1), "s")
    m["counts.build_counts_s"] = (med(["train"], "counts.build_counts"), "s")
    m["counts.save_model_s"] = (med(["train"], "counts.save_model"), "s")
    m["counts.load_model_s"] = (med(cli, "counts.load_model") / len(cli), "s")
    m["counts.model_bytes"] = (bench.model_file.stat().st_size, "bytes")
    m["counts.vocab_size"] = (len(vocab), "count")
    m["tagset.sorted_labels_per_token"] = (total(lib, "tagset.sorted_labels", 2) / lib_tokens, "count")
    m["taggers.transition_tables_s"] = (med(lib, "taggers.transition_tables"), "s")
    m["taggers.transition_tables_per_sentence"] = (
        per_sentence(first, "taggers.transition_tables"), "count")
    m["taggers.trigram_tables_s"] = (med(lib, "taggers.trigram_tables"), "s")
    m["taggers.trigram_tables_per_sentence"] = (
        per_sentence(["lib:trigram"], "taggers.trigram_tables"), "count")
    m["taggers.trigram_tables_share"] = (
        share(["lib:trigram"], "taggers.trigram_tables", ["lib:trigram"], "taggers.tag_sentence"),
        "share")
    m["taggers.emission_table_s"] = (med(lib, "taggers.emission_table"), "s")
    emitted = sum(len(w) for w in emission_words.values())
    m["taggers.emission_us_per_token"] = (
        total(lib, "taggers.emission_table", 0) / emitted * 1e6 if emitted else 0.0, "us")
    # distinct words over words looked up in one library pass of one method
    m["taggers.emission_distinct_share"] = (
        statistics.median(len(set(w)) / len(w) for w in emission_words.values())
        if emitted else 0.0, "share")
    m["taggers.tag_unigram_s"] = (med(lib, "taggers.tag_unigram"), "s")
    m["taggers.tag_sentence_self_s"] = (med(lib, "taggers.tag_sentence", 1), "s")
    for meth in METHODS:
        m[f"taggers.tag_sentence_s.{meth}"] = (med([f"lib:{meth}"], "taggers.tag_sentence"), "s")
    for k in ("bigram", "trigram"):
        name = f"kernels.viterbi_{k}"
        kinds = first if k == "bigram" else ["lib:trigram"]
        m[f"{name}_s"] = (med(lib, name), "s")
        m[f"{name}_ns_per_op"] = (ns_per_op(name), "ns")
        m[f"{name}_ops"] = (kernel_ops[name] / rounds, "count")
        m[f"{name}_calls_per_sentence"] = (per_sentence(kinds, name), "count")
    m["taggers.decode_with_trace_s"] = (med(probe, "taggers.decode_with_trace"), "s")
    m["evaluation.evaluate_s"] = (med(["eval"], "evaluation.evaluate"), "s")
    for meth in METHODS:
        m[f"cli.tag_self_s.{meth}"] = (med([f"cli_tag:{meth}"], "cli.main", 1), "s")
    m["cli.train_self_s"] = (med(["train"], "cli.main", 1), "s")
    m["cli.train_layers_share"] = (train_parts / train_total if train_total else 0.0, "share")
    m["trace.overhead_share"] = (overhead, "share")
    m["host.calib_ms"] = (statistics.median(bench.calib), "ms")
    return {k: (v, u, f"{rounds} traced rounds") for k, (v, u) in m.items()}


def environment(sp):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels.USING_NUMBA": getattr(sp.kernels, "USING_NUMBA", None),
        "nproc": nproc,
        "numba": NUMBA_NOTE,
        "load": "closed loop, one caller, one process, one thread",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        sp = import_statpos()
    except ImportError as e:
        print(f"error: cannot import statpos from {SRC}: {e}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, args.seed, workdir)
        bench = Bench(sp, wl, workdir, args.seconds)
        bench.prepare(checks.load_reference(wl.name, wl.seed))
        if args.trace:
            tracer, rounds, overhead = bench.traced()
            metrics = layer_metrics(bench, tracer, rounds, overhead)
        else:
            metrics = bench.end_to_end()
        derived = bench.derived()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gate = bench.gate
    failures = bench.ledger.failures
    attempted = bench.ledger.attempted
    if not args.trace:
        metrics["ok_share"] = (1.0 - len(failures) / attempted, "share",
                               f"{attempted} distinct operations, {len(failures)} failed")
    context = {
        **wl.describe(),
        "environment": environment(sp),
        "reference": ("unrecorded for this seed" if gate.reference is None
                      else "recorded"),
        "reference_entry": gate.record(),
        "derived": derived,
        "failures": failures[:50],
        "host.calib_ms": [round(c, 3) for c in bench.calib],
    }
    if args.trace:
        context["absent_spans"] = tracer.absent
        context["spans_per_round"] = len(tracer.spans) / rounds
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json.gz"
        with gzip.open(spans_file, "wt", encoding="utf-8") as fh:
            for s in tracer.spans:
                work = s[tracing.WORK]
                fh.write(json.dumps(s[:5] + [len(work) if isinstance(work, list) else work]) + "\n")
        context["spans_file"] = str(spans_file.relative_to(ROOT))

    if not args.trace:
        samples_file = out_dir / f"samples-{args.workload}-{args.seed}.json"
        samples_file.write_text(json.dumps(bench.samples), encoding="utf-8")
        context["samples_file"] = str(samples_file.relative_to(ROOT))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:6s} ({samples})")
    print("context " + json.dumps(context, ensure_ascii=False, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
