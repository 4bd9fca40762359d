import io
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from statpos import cli, counts, errors, evaluation, kernels, taggers
from statpos.cli import main

TRAIN = "a/NN b/VM\nc/JJ d/QC\na/NN d/QC\n"
# a corpus in which the sentinel spelling <S> is a word
SENTINEL_WORD_TRAIN = "a/NN b/VM\nc/JJ b/VM\n<S>/NN a/VM\n"


def _trained(tmp_path, text):
    corpus = tmp_path / "train.txt"
    corpus.write_text(text, encoding="utf-8")
    model = tmp_path / "model.txt"
    assert main(["train", "--corpus", str(corpus), "--model", str(model)]) == 0
    return model


@pytest.fixture
def model_path(tmp_path):
    return _trained(tmp_path, TRAIN)


@pytest.fixture
def sentinel_word_model_path(tmp_path):
    return _trained(tmp_path, SENTINEL_WORD_TRAIN)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env(**extra):
    """The environment of a child Python that imports statpos from this
    checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


class TestTrain:
    def test_summary(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN b/VM\nc/JJ\n", encoding="utf-8")
        model = tmp_path / "m.txt"
        code, out, _ = run(capsys, ["train", "--corpus", str(corpus), "--model", str(model)])
        assert code == 0
        assert model.exists()
        assert "sentences: 2" in out
        assert "tokens: 3" in out
        assert "skipped: 0" in out

    def test_strict_malformed(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN\nbad line\n", encoding="utf-8")
        code, out, err = run(capsys, ["train", "--corpus", str(corpus),
                                      "--model", str(tmp_path / "m.txt")])
        assert code == 1
        assert "line 2" in err
        assert out == ""

    def test_lenient_malformed(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN\nbad line\n", encoding="utf-8")
        code, out, _ = run(capsys, ["train", "--corpus", str(corpus),
                                    "--model", str(tmp_path / "m.txt"), "--lenient"])
        assert code == 0
        assert "skipped: 1" in out

    def test_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n", encoding="utf-8")
        code, _, err = run(capsys, ["train", "--corpus", str(corpus),
                                    "--model", str(tmp_path / "m.txt")])
        assert code == 2
        assert "empty" in err

    def test_custom_tagset(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/FOO\n", encoding="utf-8")
        tagfile = tmp_path / "tags.txt"
        tagfile.write_text("FOO\nBAR\n", encoding="utf-8")
        code, out, _ = run(capsys, ["train", "--corpus", str(corpus),
                                    "--model", str(tmp_path / "m.txt"),
                                    "--tagset", str(tagfile)])
        assert code == 0
        assert "tags: 2" in out

    def test_missing_tagset(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN\n", encoding="utf-8")
        code, out, err = run(capsys, ["train", "--corpus", str(corpus),
                                      "--model", str(tmp_path / "m.txt"),
                                      "--tagset", str(tmp_path / "nope.txt")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nope.txt" in err

    def test_model_path_is_a_directory(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN\n", encoding="utf-8")
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        code, out, err = run(capsys, ["train", "--corpus", str(corpus),
                                      "--model", str(model_dir)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "models" in err
        assert list(model_dir.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "models"]

    @pytest.mark.parametrize("option", ["--corpus", "--tagset"])
    def test_model_is_an_input(self, tmp_path, capsys, monkeypatch, option):
        # refused before anything is read, since the model would replace the file
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN b/VM\n", encoding="utf-8")
        tagfile = tmp_path / "tags.txt"
        tagfile.write_text("NN\nVM\n", encoding="utf-8")
        target = corpus if option == "--corpus" else tagfile
        os.link(target, tmp_path / "link.txt")
        monkeypatch.chdir(tmp_path)
        for model in (str(target), target.name, "./" + target.name, "link.txt"):
            code, out, err = run(capsys, ["train", "--corpus", str(corpus), "--tagset",
                                          str(tagfile), "--model", model])
            assert code == 1
            assert out == ""
            assert err == f"error: {option} and --model are the same file {model!r}\n"
            assert corpus.read_text(encoding="utf-8") == "a/NN b/VM\n"
            assert tagfile.read_text(encoding="utf-8") == "NN\nVM\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "link.txt", "tags.txt"]

    def test_model_is_an_unreadable_input(self, tmp_path, capsys):
        # the same-file refusal comes before the corpus is read
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"caf\xe9/NN\n")
        code, out, err = run(capsys, ["train", "--corpus", str(corpus), "--model", str(corpus)])
        assert code == 1
        assert err == f"error: --corpus and --model are the same file {str(corpus)!r}\n"
        assert corpus.read_bytes() == b"caf\xe9/NN\n"

    def test_word_spelled_like_terminator(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN count=1/NN b/VM\n", encoding="utf-8")
        model = tmp_path / "m.txt"
        assert main(["train", "--corpus", str(corpus), "--model", str(model)]) == 0
        src = tmp_path / "in.txt"
        src.write_text("count=1 b\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        assert main(["tag", "--model", str(model), "--method", "bigram",
                     "--input", str(src), "--output", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8") == "count=1/NN b/VM\n"

    def test_words_spelled_like_the_sentinels(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("x/NN b/VM\nc/JJ b/VM\n<S>/NN a/VM\n</S>/QC b/VM\n",
                          encoding="utf-8")
        model = tmp_path / "m.txt"
        assert main(["train", "--corpus", str(corpus), "--model", str(model)]) == 0
        src = tmp_path / "in.txt"
        src.write_text("<S> a\n</S> b\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        for method in ("unigram", "bigram", "trigram", "hmm"):
            assert main(["tag", "--model", str(model), "--method", method,
                         "--input", str(src), "--output", str(out_path)]) == 0
            assert out_path.read_text(encoding="utf-8") == "<S>/NN a/VM\n</S>/QC b/VM\n"


class TestTag:
    def test_single_path(self, model_path, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        for method in ("unigram", "bigram", "trigram", "hmm"):
            code = main(["tag", "--model", str(model_path), "--method", method,
                         "--input", str(src), "--output", str(out_path)])
            assert code == 0
            assert out_path.read_text(encoding="utf-8") == "a/NN b/VM\n"

    def test_blank_lines_preserved(self, model_path, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("a b\n\nc d\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        assert main(["tag", "--model", str(model_path), "--method", "hmm",
                     "--input", str(src), "--output", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 4 and lines[1] == ""

    def test_empty_input(self, model_path, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        assert main(["tag", "--model", str(model_path), "--method", "bigram",
                     "--input", str(src), "--output", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8") == ""

    def test_unknown_word_single_tag_policy(self, model_path, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("zzz\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        assert main(["tag", "--model", str(model_path), "--method", "unigram",
                     "--unknown-policy", "NN",
                     "--input", str(src), "--output", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8") == "zzz/NN\n"

    def test_missing_input(self, model_path, tmp_path, capsys):
        code, out, err = run(capsys, ["tag", "--model", str(model_path), "--method", "hmm",
                                      "--input", str(tmp_path / "missing.txt")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.txt" in err

    def test_unwritable_output(self, model_path, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        opened = []

        def tracking_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(errors, "open", tracking_open, raising=False)
        code, out, err = run(capsys, ["tag", "--model", str(model_path), "--method", "hmm",
                                      "--input", str(src),
                                      "--output", str(tmp_path / "nonexistent" / "o.txt")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "o.txt" in err
        assert opened and all(fh.closed for fh in opened)

    def test_stdin(self, model_path, tmp_path, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"a b\n"), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        out_path = tmp_path / "out.txt"
        assert main(["tag", "--model", str(model_path), "--method", "hmm",
                     "--output", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8") == "a/NN b/VM\n"
        assert not stdin.closed

    def test_missing_model(self, tmp_path, capsys):
        code, _, err = run(capsys, ["tag", "--model", str(tmp_path / "none.txt"),
                                    "--method", "hmm", "--input", str(tmp_path / "none.txt")])
        assert code == 1
        assert "error" in err

    def test_output_is_the_input(self, model_path, tmp_path, capsys, monkeypatch):
        # refused before the output is opened, which would empty the input
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        os.link(src, tmp_path / "link.txt")
        monkeypatch.chdir(tmp_path)
        for output in (str(src), "in.txt", "./in.txt", "link.txt"):
            code, out, err = run(capsys, ["tag", "--model", str(model_path), "--method", "hmm",
                                          "--input", str(src), "--output", output])
            assert code == 1
            assert out == ""
            assert err == f"error: --input and --output are the same file {output!r}\n"
            assert src.read_text(encoding="utf-8") == "a b\n"

    def test_output_is_standard_input(self, model_path, tmp_path):
        # `tag --output X < X`: the shell opened X for reading, and opening
        # it for writing would empty it before it is read
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        with open(src, "rb") as stdin:
            done = subprocess.run([sys.executable, "-m", "statpos.cli", "tag", "--model",
                                   str(model_path), "--method", "hmm", "--output", str(src)],
                                  stdin=stdin, env=child_env(), capture_output=True, text=True,
                                  timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"error: standard input and --output are the same file {str(src)!r}\n")
        assert src.read_bytes() == b"a b\n"

    def test_output_is_the_device_standard_input_reads(self, model_path):
        # only a regular file is emptied by opening it for writing
        done = subprocess.run([sys.executable, "-m", "statpos.cli", "tag", "--model",
                               str(model_path), "--method", "hmm", "--output", os.devnull],
                              stdin=subprocess.DEVNULL, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


class TestTagChunks:
    """`tag` reads and writes its input a chunk of lines at a time."""

    RAW = b"a b\r\n\r\n   \nc d a b\n\t\nd\r\nzzz a\n\n\na b c d a b c\r\nb"
    # lines that end in a 300-word line, in which <S> is a word
    LONG = ("a b\n\nc b a b c a\n   \nb\nc b <S> a\n"
            + " ".join(itertools.islice(itertools.cycle("a b c b a <S> c z".split()), 300))
            + "\n").encode()

    @staticmethod
    def tagged(tmp_path, tag, raw, chunk, monkeypatch):
        """The output of tag on the whole of raw, read chunk lines at a time,
        and the output of each line of raw tagged in its own run, in order."""
        each = b""
        for i, line in enumerate(raw.splitlines(keepends=True)):
            src = tmp_path / f"line{i}.txt"
            src.write_bytes(line)
            out = tmp_path / f"line{i}.out"
            assert main([*tag, "--input", str(src), "--output", str(out)]) == 0
            each += out.read_bytes()
        src = tmp_path / "in.txt"
        src.write_bytes(raw)
        out = tmp_path / "out.txt"
        monkeypatch.setattr(cli, "CHUNK_LINES", chunk)
        assert main([*tag, "--input", str(src), "--output", str(out)]) == 0
        return out.read_bytes(), each

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("method", ["unigram", "bigram", "trigram", "hmm"])
    def test_same_bytes_as_one_line_at_a_time(self, model_path, tmp_path, monkeypatch,
                                              method, chunk):
        # blank, whitespace-only and CRLF lines, and a last line without a
        # newline: the output of each line tagged in its own run, in order
        whole, each = self.tagged(tmp_path, ["tag", "--model", str(model_path), "--method", method],
                                  self.RAW, chunk, monkeypatch)
        assert whole == each
        assert each.count(b"\n") == len(self.RAW.splitlines())

    @pytest.mark.parametrize("chunk", [2, cli.CHUNK_LINES])
    @pytest.mark.parametrize("alpha", ["0.001", "0"])
    @pytest.mark.parametrize("method", ["unigram", "bigram", "trigram", "hmm"])
    def test_long_line_same_bytes_as_one_line_at_a_time(self, sentinel_word_model_path,
                                                        tmp_path, monkeypatch, method, alpha,
                                                        chunk):
        # unsmoothed, every bigram and hmm path of the line "b" scores -inf;
        # in chunks of two lines, later chunks fill rows of words not seen
        # yet, and in one chunk the long line shares a batch with the others
        whole, each = self.tagged(tmp_path, ["tag", "--model", str(sentinel_word_model_path),
                                             "--method", method, "--alpha", alpha],
                                  self.LONG, chunk, monkeypatch)
        assert whole == each
        assert each.count(b"\n") == len(self.LONG.splitlines())

    def test_long_line_takes_several_blocks(self, sentinel_word_model_path):
        # the backward pass takes its backpointers in blocks of at most
        # BLOCK_CELLS candidates, T x K per position of one sentence
        model = counts.load_model(sentinel_word_model_path)
        smoothing = counts.SmoothingConfig()
        tables = taggers._tables(model, smoothing)
        steps = len(self.LONG.splitlines()[-1].split()) - 1
        for method, blocks in (("bigram", 5), ("trigram", 6)):
            _, _, end = taggers._kernel_tables(model, smoothing, tables, method)
            per_block = kernels.BLOCK_CELLS // (len(model.tagset) * end.size)
            assert -(-steps // per_block) == blocks

    def test_flushes_each_chunk(self, model_path, tmp_path, monkeypatch):
        # what a chunk tags reaches the output before the next chunk is read
        written = []

        class Input(io.StringIO):
            def __next__(self):
                written.append(out.getvalue())
                return super().__next__()

        class Output(io.StringIO):
            pending = ""

            def write(self, text):
                self.pending = text
                return len(text)

            def flush(self):
                super().write(self.pending)
                self.pending = ""

        out = Output()
        monkeypatch.setattr(sys, "stdin", Input("a b\n\nc d\nd\n"))
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "CHUNK_LINES", 2)
        assert main(["tag", "--model", str(model_path), "--method", "hmm"]) == 0
        assert out.getvalue() == "a/NN b/VM\n\nc/JJ d/QC\nd/QC\n"
        assert written == ["", "", "a/NN b/VM\n\n", "a/NN b/VM\n\n",
                           "a/NN b/VM\n\nc/JJ d/QC\nd/QC\n"]


class TestBadModel:
    """A model file that disagrees with itself ends in one error line, exit 1."""

    @pytest.mark.parametrize("old, new", [
        ("\nNN\t2\n", "\nNN\t1\n"),
        ("\nNN\tVM\t1\n", "\nNN\tVM\t2\n"),
        ("\nb\tVM\t1\n", "\nb\tZZZ\t1\n"),
        ("\nb\tVM\t1\n", "\nb\tVM\t\u00b2\n"),
        ("\nNN\tVM\t</S>\t1\n", "\n</S>\tVM\t</S>\t1\n"),
        ("\n[word_tag]\n", "\n[word_tag]\ncount=0\n[word_tag]\n"),
        ("\n[tag]\n", "\n[junk]\nx\t1\ncount=1\n[tag]\n"),
        ("NGRAM-POS-MODEL v1\n", "NGRAM-POS-MODEL-junk-v1\n"),
        ("NGRAM-POS-MODEL v1\n", "NGRAM-POS-MODEL v2\n"),
    ], ids=["tag-section", "bigram-section", "foreign-tag", "count-not-ascii",
            "sentinel-out-of-place", "repeated-section", "unknown-section", "bad-header",
            "other-version"])
    def test_rejected(self, model_path, tmp_path, capsys, old, new):
        text = model_path.read_text(encoding="utf-8")
        assert old in text
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(old, new, 1), encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        code, out, err = run(capsys, ["tag", "--model", str(bad), "--method", "bigram",
                                      "--input", str(src)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["tag", "--method", "trigram"],
                                         ["probe", "tri", "<S>", "<S>", "</S>"]],
                             ids=["tag-trigram", "probe-tri"])
    def test_empty_sentence_trigram(self, model_path, tmp_path, capsys, command):
        # the padded trigram of an empty sentence, which train never counts
        text = model_path.read_text(encoding="utf-8")
        old = "\n<S>\t<S>\tJJ\t1\n"
        assert old in text
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(old, "\n<S>\t<S>\t</S>\t1\n", 1), encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        verb, *rest = command
        argv = [verb, "--model", str(bad), *rest]
        if verb == "tag":
            argv += ["--input", str(src)]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sentinel out of place in trigram" in err

    @pytest.mark.parametrize("command", [["tag", "--method", "unigram"], ["probe", "lex", "z"]],
                             ids=["tag-unigram", "probe-lex"])
    def test_zero_count_word(self, model_path, tmp_path, capsys, command):
        # save_model never writes a zero count; a word counted only zero
        # times would leave its P(tag | word) nothing to divide by
        text = model_path.read_text(encoding="utf-8")
        head, _, rest = text.partition("[word_tag]\n")
        records, _, tail = rest.partition("count=")
        declared, _, tail = tail.partition("\n")
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{head}[word_tag]\n{records}z\tVM\t0\ncount={int(declared) + 1}\n{tail}",
                       encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a z\n", encoding="utf-8")
        verb, *rest = command
        argv = [verb, "--model", str(bad), *rest]
        if verb == "tag":
            argv += ["--input", str(src)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv)
        assert caught == []
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["unigram", "bigram", "hmm", "trigram"])
    def test_all_sections_empty(self, tmp_path, capsys, method):
        sections = ("tagset", "word_tag", "tag", "bigram", "trigram")
        empty = tmp_path / "empty.txt"
        empty.write_text("NGRAM-POS-MODEL v1\n" + "".join(f"[{name}]\ncount=0\n"
                                                          for name in sections),
                         encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        code, out, err = run(capsys, ["tag", "--model", str(empty), "--method", method,
                                      "--input", str(src)])
        assert code == 1
        assert out == ""
        assert err == "error: empty tagset\n"


class TestEval:
    def test_self_evaluation_is_perfect(self, model_path, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text(TRAIN, encoding="utf-8")
        code, out, _ = run(capsys, ["eval", "--model", str(model_path),
                                    "--method", "bigram", "--gold", str(gold)])
        assert code == 0
        assert "accuracy: 100.00" in out

    def test_counts_self_check(self, capsys):
        # the accuracy line of format_report in each style
        for style, expected in (("plain", "accuracy: 77.38\n"),
                                ("tsv", "accuracy_percent\t77.38\n")):
            code, out, _ = run(capsys, ["eval", "--counts", "19921", "25744", "--style", style])
            assert (code, out) == (0, expected)

    def test_counts_three_of_four(self, capsys):
        code, out, _ = run(capsys, ["eval", "--counts", "3", "4"])
        assert code == 0
        assert "accuracy: 75.00" in out

    @pytest.mark.parametrize("correct,total", [("1", "0"), ("0", "0"), ("5", "3"), ("-1", "3")])
    def test_counts_out_of_range(self, capsys, correct, total):
        code, out, err = run(capsys, ["eval", "--counts", correct, total])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tsv_style(self, model_path, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text(TRAIN, encoding="utf-8")
        code, out, _ = run(capsys, ["eval", "--model", str(model_path),
                                    "--method", "hmm", "--gold", str(gold),
                                    "--style", "tsv"])
        assert code == 0
        assert "correct_tokens\t6" in out

    @pytest.mark.parametrize("style", ["plain", "tsv"])
    def test_empty_gold(self, model_path, tmp_path, capsys, style):
        # blank lines only, and no bytes at all
        gold = tmp_path / "gold.txt"
        for text in ("\n\n", ""):
            gold.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, ["eval", "--model", str(model_path), "--method", "hmm",
                                          "--gold", str(gold), "--style", style])
            assert code == 2
            assert out == ""
            assert err == "error: empty gold corpus\n"

    @pytest.mark.parametrize("style", ["plain", "tsv"])
    @pytest.mark.parametrize("method", ["unigram", "bigram", "trigram", "hmm"])
    def test_report_of_each_sentence_tagged_alone(self, model_path, tmp_path, capsys,
                                                  style, method):
        import statpos

        text = "a/NN b/VM c/JJ\nc/JJ d/QC\nd/QC\na/NN d/QC a/NN b/VM\nb/VM zzz/NN\n"
        gold_path = tmp_path / "gold.txt"
        gold_path.write_text(text, encoding="utf-8")
        model = statpos.load_model(model_path)
        gold, _ = statpos.load_corpus(gold_path, model.tagset)
        config = statpos.TaggerConfig(method=method)
        predicted = [statpos.tag_sentence([w for w, _ in s], model, config) for s in gold]
        code, out, _ = run(capsys, ["eval", "--model", str(model_path), "--method", method,
                                    "--gold", str(gold_path), "--style", style])
        assert code == 0
        assert out == evaluation.format_report(evaluation.evaluate(gold, predicted), style=style)

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, ["eval", "--style", "plain"])
        assert code == 1
        assert "required" in err

    def test_pipeline_composability(self, model_path, tmp_path, capsys):
        # tagging the words of a gold file yields output eval accepts
        gold = tmp_path / "gold.txt"
        gold.write_text(TRAIN, encoding="utf-8")
        words = tmp_path / "words.txt"
        words.write_text("".join(
            " ".join(tok.rsplit("/", 1)[0] for tok in line.split()) + "\n"
            for line in TRAIN.strip().split("\n")), encoding="utf-8")
        tagged = tmp_path / "tagged.txt"
        assert main(["tag", "--model", str(model_path), "--method", "trigram",
                     "--input", str(words), "--output", str(tagged)]) == 0
        code, out, _ = run(capsys, ["eval", "--model", str(model_path),
                                    "--method", "trigram", "--gold", str(gold)])
        assert code == 0


class TestProbe:
    def test_emit(self, model_path, capsys):
        code, out, _ = run(capsys, ["probe", "--model", str(model_path),
                                    "--alpha", "0", "emit", "a", "NN"])
        assert code == 0
        assert "raw\t1" in out
        assert "smoothed\t1" in out

    def test_trans(self, model_path, capsys):
        code, out, _ = run(capsys, ["probe", "--model", str(model_path),
                                    "--alpha", "0", "trans", "NN", "VM"])
        assert code == 0
        assert "raw\t0.5" in out

    def test_trans_from_start(self, model_path, capsys):
        code, out, _ = run(capsys, ["probe", "--model", str(model_path),
                                    "--alpha", "0", "trans", "<S>", "NN"])
        assert code == 0
        assert out == "raw\t0.6666666667\nsmoothed\t0.6666666667\n"

    def test_old_sentinel_spelling_is_a_tag(self, model_path, capsys):
        code, out, err = run(capsys, ["probe", "--model", str(model_path),
                                      "trans", "START", "NN"])
        assert code == 1
        assert out == ""
        assert err == "error: unknown tag 'START'\n"

    @pytest.mark.parametrize("query", [["trans", "</S>", "NN"], ["trans", "NN", "<S>"],
                                       ["tri", "</S>", "NN", "VM"], ["tri", "NN", "</S>", "VM"],
                                       ["tri", "NN", "VM", "<S>"], ["tri", "<S>", "<S>", "</S>"]],
                             ids=["trans-from-end", "trans-to-start", "tri-end-first",
                                  "tri-end-second", "tri-to-start", "tri-start-start-end"])
    def test_sentinel_out_of_place(self, model_path, capsys, query):
        # no padded sentence has a tag after END, START after a tag, or END
        # after two STARTs (the padding of an empty sentence)
        code, out, err = run(capsys, ["probe", "--model", str(model_path), *query])
        assert code == 1
        assert out == ""
        assert err.startswith("error: no transition") and err.count("\n") == 1

    def test_tri(self, model_path, capsys):
        code, out, _ = run(capsys, ["probe", "--model", str(model_path),
                                    "tri", "JJ", "QC", "NN"])
        assert code == 0
        assert "raw\t" in out

    def test_lex_distribution(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("x/NN y/VM\nx/JJ y/VM\n", encoding="utf-8")
        model = tmp_path / "m.txt"
        assert main(["train", "--corpus", str(corpus), "--model", str(model)]) == 0
        code, out, _ = run(capsys, ["probe", "--model", str(model), "lex", "x"])
        assert code == 0
        assert "JJ 0.5 / NN 0.5" in out

    def test_decode_trace(self, model_path, capsys):
        code, out, _ = run(capsys, ["probe", "--model", str(model_path),
                                    "decode", "hmm", "a", "b"])
        assert code == 0
        assert "a/NN b/VM" in out
        assert "path_score" in out

    @pytest.mark.parametrize("method", ["unigram", "bigram", "trigram", "hmm"])
    def test_decode_path_is_what_tag_writes(self, sentinel_word_model_path, tmp_path, capsys,
                                            method):
        src = tmp_path / "cba.txt"
        src.write_text("c b a\n", encoding="utf-8")
        code, trace, _ = run(capsys, ["probe", "--model", str(sentinel_word_model_path),
                                      "decode", method, "c", "b", "a"])
        assert code == 0
        code, tagged, _ = run(capsys, ["tag", "--model", str(sentinel_word_model_path),
                                       "--method", method, "--input", str(src)])
        assert code == 0
        assert trace.splitlines(keepends=True)[0] == tagged

    def test_lex_unknown_word(self, model_path, capsys):
        code, out, err = run(capsys, ["probe", "--model", str(model_path), "lex", "zzz"])
        assert code == 1
        assert out == ""
        assert err == "error: unknown word 'zzz'\n"

    def test_unknown_query_form(self, model_path, capsys):
        code, _, err = run(capsys, ["probe", "--model", str(model_path), "bogus"])
        assert code == 1
        assert "unknown query" in err

    def test_unknown_tag(self, model_path, capsys):
        code, _, err = run(capsys, ["probe", "--model", str(model_path),
                                    "trans", "NN", "ZZZ"])
        assert code == 1


class TestNonUtf8Input:
    """A Latin-1 file given to any command ends in one error line, exit 1."""

    LATIN1 = "café".encode("latin-1")

    def assert_one_error_line(self, capsys, argv, *expected):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        for text in expected:
            assert text in err

    def test_train_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"a/NN b/VM\n" + self.LATIN1 + b"/NN\n")
        self.assert_one_error_line(capsys, ["train", "--corpus", str(corpus),
                                            "--model", str(tmp_path / "m.txt")], "line 2")

    def test_train_tagset(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a/NN\n", encoding="utf-8")
        tagfile = tmp_path / "tags.txt"
        tagfile.write_bytes(b"NN\n" + self.LATIN1 + b"\n")
        self.assert_one_error_line(capsys, ["train", "--corpus", str(corpus),
                                            "--model", str(tmp_path / "m.txt"),
                                            "--tagset", str(tagfile)], "tags.txt")

    def test_tag_input(self, model_path, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(self.LATIN1 + b" a\n")
        self.assert_one_error_line(capsys, ["tag", "--model", str(model_path),
                                            "--method", "hmm", "--input", str(src)], "in.txt")

    def test_tag_input_with_output_path(self, model_path, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(self.LATIN1 + b" a\n")
        self.assert_one_error_line(capsys, ["tag", "--model", str(model_path),
                                            "--method", "hmm", "--input", str(src),
                                            "--output", str(tmp_path / "out.txt")],
                                   "in.txt: not UTF-8")

    def test_tag_model(self, model_path, tmp_path, capsys):
        model = tmp_path / "latin1-model.txt"
        model.write_bytes(model_path.read_bytes().replace(b"\na\t", b"\n" + self.LATIN1 + b"\t"))
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        self.assert_one_error_line(capsys, ["tag", "--model", str(model), "--method", "hmm",
                                            "--input", str(src)], "latin1-model.txt")

    def test_tag_stdin(self, model_path, capsys, monkeypatch):
        # a C locale opens stdin with surrogateescape, which never fails to decode
        stdin = io.TextIOWrapper(io.BytesIO(self.LATIN1 + b" a\n"), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        self.assert_one_error_line(capsys, ["tag", "--model", str(model_path), "--method", "hmm"],
                                   "not UTF-8")
        assert not stdin.closed

    def test_eval_gold(self, model_path, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_bytes(b"a/NN b/VM\nc/JJ " + self.LATIN1 + b"/QC\n")
        self.assert_one_error_line(capsys, ["eval", "--model", str(model_path), "--method", "hmm",
                                            "--gold", str(gold)], "line 2")


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A file or standard input that opens with a UTF-8 byte order mark reads
    as its twin without one, and a model file with CRLF line ends as its
    twin with LF ones."""

    TAGS = b"NN\nVM\nJJ\nQC\n"

    def trained(self, tmp_path, name, corpus, tags=None):
        """The bytes of the model trained from corpus (and tags, if given)."""
        (tmp_path / f"{name}.txt").write_bytes(corpus)
        argv = ["train", "--corpus", str(tmp_path / f"{name}.txt"),
                "--model", str(tmp_path / f"{name}.model")]
        if tags is not None:
            (tmp_path / f"{name}.tags").write_bytes(tags)
            argv += ["--tagset", str(tmp_path / f"{name}.tags")]
        assert main(argv) == 0
        return (tmp_path / f"{name}.model").read_bytes()

    def test_corpus(self, tmp_path):
        assert (self.trained(tmp_path, "bom", BOM + TRAIN.encode())
                == self.trained(tmp_path, "plain", TRAIN.encode()))

    def test_tagset(self, tmp_path):
        assert (self.trained(tmp_path, "bom", TRAIN.encode(), BOM + self.TAGS)
                == self.trained(tmp_path, "plain", TRAIN.encode(), self.TAGS))

    def test_model_file(self, model_path, tmp_path, capsys):
        bom_model = tmp_path / "bom-model.txt"
        bom_model.write_bytes(BOM + model_path.read_bytes())
        crlf_model = tmp_path / "crlf-model.txt"
        crlf_model.write_bytes(model_path.read_bytes().replace(b"\n", b"\r\n"))
        src = tmp_path / "in.txt"
        src.write_text("a b\nc d\n", encoding="utf-8")
        outcomes = [run(capsys, ["tag", "--model", str(model), "--method", "hmm",
                                 "--input", str(src)])
                    for model in (model_path, bom_model, crlf_model)]
        assert outcomes == [(0, "a/NN b/VM\nc/JJ d/QC\n", "")] * 3

    def test_stdin(self, model_path, capsys, monkeypatch):
        outcomes = []
        for raw in (b"a b\nc d\n", BOM + b"a b\nc d\n"):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
            outcomes.append(run(capsys, ["tag", "--model", str(model_path), "--method", "hmm"]))
        assert outcomes[0] == outcomes[1] == (0, "a/NN b/VM\nc/JJ d/QC\n", "")

    def test_bad_byte_keeps_its_line_number(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(BOM + b"a/NN\nb/VM\n" + "café".encode("latin-1") + b"/NN\n")
        code, out, err = run(capsys, ["train", "--corpus", str(corpus),
                                      "--model", str(tmp_path / "m.txt")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 3: not UTF-8") and err.count("\n") == 1


class TestClosedStdout:
    """A reader of standard output that has exited ends every command with
    one error line and exit 1, whether standard output is buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["train", "tag", "eval", "eval-counts", "probe-emit",
                                         "probe-decode", "help"])
    def test_one_error_line(self, model_path, tmp_path, command, unbuffered):
        corpus = tmp_path / "train.txt"
        corpus.write_text(TRAIN, encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        argv = {
            "train": ["train", "--corpus", str(corpus), "--model", str(tmp_path / "m.txt")],
            "tag": ["tag", "--model", str(model_path), "--method", "hmm", "--input", str(src)],
            "eval": ["eval", "--model", str(model_path), "--method", "hmm",
                     "--gold", str(corpus)],
            "eval-counts": ["eval", "--counts", "3", "4"],
            "probe-emit": ["probe", "--model", str(model_path), "emit", "a", "NN"],
            "probe-decode": ["probe", "--model", str(model_path), "decode", "hmm", "a", "b"],
            "help": ["--help"],
        }[command]
        child = subprocess.Popen([sys.executable, "-m", "statpos.cli", *argv],
                                 env=child_env(PYTHONUNBUFFERED=unbuffered),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()    # long before the child has started up
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1, err
        assert err == "error: [Errno 32] Broken pipe\n"


class TestBadSettings:
    """A setting outside its domain ends in one error line, exit 1."""

    @pytest.mark.parametrize("flags", [
        ["--unknown-policy", "FOO"],
        ["--alpha", "-1"],
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--lambdas", "0.5,0.5,0.5"],
        ["--lambdas", "nan,0,1"],
        ["--lambdas", "1,0"],
        ["--lambdas", "a,b,c"],
    ], ids=["policy-FOO", "alpha-negative", "alpha-nan", "alpha-inf", "lambdas-sum",
            "lambdas-nan", "lambdas-two", "lambdas-not-numbers"])
    @pytest.mark.parametrize("command", ["tag", "eval", "probe"])
    def test_rejected(self, model_path, tmp_path, capsys, command, flags):
        src = tmp_path / "in.txt"
        src.write_text("a b\n", encoding="utf-8")
        gold = tmp_path / "gold.txt"
        gold.write_text(TRAIN, encoding="utf-8")
        argv = {
            "tag": ["tag", "--model", str(model_path), "--method", "unigram",
                    "--input", str(src), "--output", str(tmp_path / "out.txt")],
            "eval": ["eval", "--model", str(model_path), "--method", "bigram",
                     "--gold", str(gold)],
            "probe": ["probe", "--model", str(model_path)],
        }[command] + flags
        if command == "probe":
            argv += ["decode", "bigram", "zzz"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_method_in_probe(self, model_path, capsys):
        code, out, err = run(capsys, ["probe", "--model", str(model_path),
                                      "decode", "quadgram", "a"])
        assert code == 1
        assert out == ""
        assert err == "error: unknown method 'quadgram'\n"


class TestSaveLoadParity:
    def test_train_save_load_tag_matches_in_memory(self, tmp_path):
        import statpos

        corpus_text = TRAIN
        tagset = statpos.default_tagset()
        sentences = [statpos.parse_tagged_line(l, tagset)
                     for l in corpus_text.strip().split("\n")]
        model = statpos.build_counts(sentences, tagset)

        corpus = tmp_path / "c.txt"
        corpus.write_text(corpus_text, encoding="utf-8")
        model_file = tmp_path / "m.txt"
        assert main(["train", "--corpus", str(corpus), "--model", str(model_file)]) == 0

        src = tmp_path / "in.txt"
        src.write_text("a b\nc d a\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        assert main(["tag", "--model", str(model_file), "--method", "hmm",
                     "--input", str(src), "--output", str(out_path)]) == 0

        config = statpos.TaggerConfig(method="hmm")
        expected = "".join(
            statpos.serialize_tagged_sentence(
                statpos.tag_sentence(line.split(), model, config)) + "\n"
            for line in ["a b", "c d a"])
        assert out_path.read_text(encoding="utf-8") == expected


class TestImports:
    def test_numpy_only_for_decoding(self, model_path, tmp_path):
        # train, eval --counts and probe emit|trans|tri|lex never decode, so
        # they run without importing numpy
        corpus = tmp_path / "c.txt"
        corpus.write_text(TRAIN, encoding="utf-8")
        runs = [["train", "--corpus", str(corpus), "--model", str(tmp_path / "m.txt")],
                ["eval", "--counts", "3", "4"],
                ["probe", "--model", str(model_path), "emit", "a", "NN"],
                ["probe", "--model", str(model_path), "trans", "NN", "VM"],
                ["probe", "--model", str(model_path), "tri", "NN", "VM", "JJ"],
                ["probe", "--model", str(model_path), "lex", "a"]]
        code = ("import sys, statpos\n"
                "from statpos.cli import main\n"
                f"for argv in {runs!r}:\n"
                "    assert main(argv) == 0, argv\n"
                "assert 'numpy' not in sys.modules\n"
                "statpos.tag_sentence\n"
                "assert 'numpy' in sys.modules\n")
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
