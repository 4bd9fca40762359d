"""Command-line interface: train, tag, eval and probe subcommands."""

import argparse
import contextlib
import itertools
import os
import stat
import sys

from . import corpus as corpus_io
from . import counts as counts_mod
from . import evaluation
from .counts import METHODS, SmoothingConfig, UNIFORM_OPEN_CLASS
from .errors import EmptyCorpus, StatposError, UnknownWord, text_file
from .tagset import Tagset, default_tagset

# Lines that `tag` reads, tags with one tag_corpus call and writes at a time.
CHUNK_LINES = 1000


def _smoothing_args(parser):
    parser.add_argument("--alpha", type=float, default=0.001,
                        help="additive smoothing constant (0 disables smoothing)")
    parser.add_argument("--lambdas", default="0.6,0.3,0.1",
                        help="trigram interpolation weights l3,l2,l1")
    parser.add_argument("--unknown-policy", default="open-class",
                        help="'open-class' or a tag label to force on unknown words")


def _smoothing_from(args, tagset):
    try:
        l3, l2, l1 = (float(x) for x in args.lambdas.split(","))
    except ValueError:
        raise StatposError(f"bad --lambdas value {args.lambdas!r}")
    policy = UNIFORM_OPEN_CLASS if args.unknown_policy == "open-class" else args.unknown_policy
    counts_mod.check_unknown_policy(policy, tagset)
    return SmoothingConfig(alpha=args.alpha, lambda3=l3, lambda2=l2, lambda1=l1,
                           unknown_policy=policy)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops an OSError from every write of its own; one to
        # standard output (the help) goes to main, as any other write's does
        if file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)


def build_parser():
    parser = _Parser(prog="statpos", description="statistical POS tagging toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="build a counts model from a tagged corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--tagset", help="tagset file (default: built-in Marathi tagset)")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed lines instead of aborting")

    p = sub.add_parser("tag", help="tag raw text, one sentence per line")
    p.add_argument("--model", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--input", help="raw text path (default: stdin)")
    p.add_argument("--output", help="tagged output path (default: stdout)")
    _smoothing_args(p)

    p = sub.add_parser("eval", help="re-tag a gold corpus and score the result")
    p.add_argument("--model")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--gold")
    p.add_argument("--style", choices=("plain", "tsv"), default="plain")
    p.add_argument("--counts", nargs=2, type=int, metavar=("CORRECT", "TOTAL"),
                   help="skip tagging; print the accuracy of these bare counts")
    _smoothing_args(p)

    p = sub.add_parser("probe", help="inspect model probabilities and decode traces")
    p.add_argument("--model", required=True)
    p.add_argument("query", nargs="+",
                   help="emit WORD TAG | trans PREV TAG | tri T2 T1 TAG | "
                        "lex WORD | decode METHOD WORD...")
    _smoothing_args(p)

    return parser


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def cmd_train(args):
    # the model is written over the path it names, so it must be neither input
    for option, path in (("--corpus", args.corpus), ("--tagset", args.tagset)):
        if path is not None and _same_file(path, args.model):
            raise StatposError(f"{option} and --model are the same file {args.model!r}")
    tagset = Tagset.from_file(args.tagset) if args.tagset else default_tagset()
    sentences, skipped = corpus_io.load_corpus(args.corpus, tagset, strict=not args.lenient)
    model = counts_mod.build_counts(sentences, tagset)
    counts_mod.save_model(model, args.model)
    print(f"sentences: {len(sentences)}")
    print(f"tokens: {model.total_tokens}")
    print(f"vocabulary: {len(model.vocabulary)}")
    print(f"tags: {len(model.tagset)}")
    print(f"skipped: {skipped}")
    return 0


def _reads_file(stream, path):
    """Whether an open stream reads the regular file at path; False for a
    stream without a file descriptor, such as an in-memory one."""
    try:
        info = os.fstat(stream.fileno())
        return stat.S_ISREG(info.st_mode) and os.path.samestat(info, os.stat(path))
    except OSError:
        return False


def cmd_tag(args):
    from . import taggers

    model = counts_mod.load_model(args.model)
    config = taggers.TaggerConfig(method=args.method,
                                  smoothing=_smoothing_from(args, model.tagset))
    with contextlib.ExitStack() as stack:
        instream = stack.enter_context(
            text_file(args.input or getattr(sys.stdin, "buffer", sys.stdin)))
        # opening the output would empty the input before it is read
        if args.output and _reads_file(instream, args.output):
            source = "--input" if args.input else "standard input"
            raise StatposError(f"{source} and --output are the same file {args.output!r}")
        outstream = stack.enter_context(text_file(args.output or sys.stdout, "w"))
        while True:
            lines = [raw.rstrip("\r\n") for raw in itertools.islice(instream, CHUNK_LINES)]
            if not lines:
                return 0
            tagged = iter(taggers.tag_corpus(
                [corpus_io.tokenize_raw_line(line) for line in lines if line.strip()],
                model, config))
            outstream.write("".join(
                corpus_io.serialize_tagged_sentence(next(tagged)) + "\n" if line.strip() else "\n"
                for line in lines))
            outstream.flush()


def cmd_eval(args):
    if args.counts:
        correct, total = args.counts
        if not (0 <= correct <= total and total > 0):
            raise StatposError(f"--counts needs 0 <= CORRECT <= TOTAL and TOTAL > 0, "
                               f"got {correct} {total}")
        # the keys of format_report's accuracy line in each style
        key = {"plain": "accuracy: ", "tsv": "accuracy_percent\t"}[args.style]
        print(f"{key}{evaluation.round_percent(evaluation.accuracy_percent(correct, total))}")
        return 0
    if not (args.model and args.method and args.gold):
        raise StatposError("--model, --method and --gold are required without --counts")
    from . import taggers

    model = counts_mod.load_model(args.model)
    config = taggers.TaggerConfig(method=args.method,
                                  smoothing=_smoothing_from(args, model.tagset))
    gold, _ = corpus_io.load_corpus(args.gold, model.tagset, strict=True)
    if not gold:
        raise EmptyCorpus("empty gold corpus")
    predicted = taggers.tag_corpus([[w for w, _ in s] for s in gold], model, config)
    report = evaluation.evaluate(gold, predicted)
    sys.stdout.write(evaluation.format_report(report, style=args.style))
    return 0


def _fmt_prob(p):
    return f"{p:.10g}"


def cmd_probe(args):
    model = counts_mod.load_model(args.model)
    smoothing = _smoothing_from(args, model.tagset)
    raw_smoothing = SmoothingConfig(alpha=0.0, lambda3=1.0, lambda2=0.0, lambda1=0.0,
                                    unknown_policy=smoothing.unknown_policy,
                                    open_class_tags=smoothing.open_class_tags)
    q = args.query
    # query form -> (probability function, query length)
    probes = {"emit": (counts_mod.p_word_given_tag, 3),
              "trans": (counts_mod.p_bigram_transition, 3),
              "tri": (counts_mod.p_trigram_transition, 4)}
    if q[0] in probes and len(q) == probes[q[0]][1]:
        prob = probes[q[0]][0]
        print(f"raw\t{_fmt_prob(prob(model, *q[1:], raw_smoothing))}")
        print(f"smoothed\t{_fmt_prob(prob(model, *q[1:], smoothing))}")
    elif q[0] == "lex" and len(q) == 2:
        word = q[1]
        if word not in model.vocabulary:
            raise UnknownWord(f"unknown word {word!r}")
        dist = [(counts_mod.p_tag_given_word(model, word, t), t) for t in model.tagset
                if (word, t) in model.word_tag_count]
        dist.sort(key=lambda pt: (-pt[0], pt[1]))
        print(" / ".join(f"{t} {_fmt_prob(p)}" for p, t in dist))
    elif q[0] == "decode" and len(q) >= 3:
        from . import taggers

        words = q[2:]
        config = taggers.TaggerConfig(method=q[1], smoothing=smoothing)
        tagged, trace = taggers.decode_with_trace(words, model, config)
        print(corpus_io.serialize_tagged_sentence(tagged))
        print(f"path_score\t{trace.path_score:.6f}")
        for i, scores in enumerate(trace.positions):
            row = "\t".join(f"{t}={s:.4f}" for t, s in sorted(scores.items()))
            print(f"{i}\t{words[i]}\t{row}")
    else:
        raise StatposError(f"unknown query form {' '.join(q)!r}")
    return 0


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
            handler = {"train": cmd_train, "tag": cmd_tag, "eval": cmd_eval,
                       "probe": cmd_probe}[args.subcommand]
            return handler(args)
        finally:
            # a reader of standard output that has gone shows here, not at exit
            sys.stdout.flush()
    except StatposError as e:
        message, status = e, 2 if isinstance(e, EmptyCorpus) else 1
    except OSError as e:
        # a write to standard output: text_file turns every other OSError
        # into an IoFailure.  The flush at interpreter exit then has nowhere
        # to fail.
        message, status = e, 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"error: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
